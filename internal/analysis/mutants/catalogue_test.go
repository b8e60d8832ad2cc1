package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogueApplies keeps the catalogue from rotting: every mutant
// names a file of the module whose text contains its old text exactly
// once, and changes it. A refactor that moves a mutant's subject fails
// here, under go test ./..., instead of in the next `make mutants`.
func TestCatalogueApplies(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	seen := map[string]bool{}
	for _, m := range catalogue {
		if seen[m.id] {
			t.Errorf("duplicate mutant id %s", m.id)
		}
		seen[m.id] = true
		if m.old == m.new {
			t.Errorf("%s: old and new are equal", m.id)
		}
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
		if err != nil {
			t.Errorf("%s: %v", m.id, err)
			continue
		}
		if n := strings.Count(string(data), m.old); n != 1 {
			t.Errorf("%s: old text occurs %d times in %s, want 1", m.id, n, m.file)
		}
	}
	if len(catalogue) < 30 {
		t.Errorf("catalogue has %d mutants, want at least 30", len(catalogue))
	}
}
