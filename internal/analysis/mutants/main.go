// Command mutants scores the repository's safety net against the
// seeded faults in catalogue.go. It copies the module into a temporary
// directory (the working tree is never written), applies one mutant at
// a time, and runs a fixed set of killers on each:
//
//   - go vet ./...
//   - reschedvet ./..., crediting every analyzer that reports a finding;
//   - go test -count=1 -timeout 180s on the mutated package plus the
//     packages `make race` covers (a timeout is a kill);
//   - go test -race on the `make race` packages.
//
// Every mutant must apply exactly once and compile, and the unmutated
// copy must pass every killer, or the run stops before scoring: a
// flaky test must not pose as a kill. The result is printed as a
// markdown matrix of mutant × killer. Run it from the module root:
//
//	go run ./internal/analysis/mutants
//
// It takes no flags; `make mutants` runs it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// mutant is one seeded fault: old, which must occur exactly once in
// file (a slash path relative to the module root), becomes new.
type mutant struct {
	id, file, old, new string
}

// killers are the matrix columns, in order. Analyzer kills share the
// reschedvet column, which names them.
var killers = []string{"vet", "test", "race", "reschedvet"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mutants: ")
	root := moduleRoot()
	tmp, err := os.MkdirTemp("", "resched-mutants-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	src := filepath.Join(tmp, "src")
	if err := copyModule(root, src); err != nil {
		log.Fatal(err)
	}
	vetBin := filepath.Join(tmp, "reschedvet")
	if out, err := run(src, "go", "build", "-o", vetBin, "./cmd/reschedvet"); err != nil {
		log.Fatalf("building reschedvet: %v\n%s", err, out)
	}
	race := testPackages(src, racePatterns(root))

	for _, m := range catalogue {
		restore := apply(src, m)
		out, err := run(src, "go", "build", "./...")
		restore()
		if err != nil {
			log.Fatalf("catalogue error: mutant %s does not compile:\n%s", m.id, out)
		}
	}
	if base := score(src, vetBin, "", race); len(base) > 0 {
		log.Fatalf("the unmutated copy is not clean: %v", base)
	}
	log.Printf("unmutated copy clean; scoring %d mutants", len(catalogue))

	kills := make([]map[string]string, len(catalogue))
	for i, m := range catalogue {
		start := time.Now()
		restore := apply(src, m)
		kills[i] = score(src, vetBin, "./"+path.Dir(m.file), race)
		restore()
		log.Printf("%s: %v (%s)", m.id, kills[i], time.Since(start).Round(time.Second))
	}
	printMatrix(kills)
}

// moduleRoot is the directory of the go.mod governing the current
// directory.
func moduleRoot() string {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	gomod := strings.TrimSpace(string(out))
	if err != nil || gomod == "" || gomod == os.DevNull {
		log.Fatal("run from inside the resched module")
	}
	return filepath.Dir(gomod)
}

// copyModule copies the module's files to dst, leaving out dot
// directories (.git, build output) and nested modules, which ./...
// never reaches.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && rel != "." {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// selfDir is this driver's package, left out of the test runs: its
// catalogue test fails on every mutated tree by design.
const selfDir = "internal/analysis/mutants"

// testPackages expands patterns in the copy to the package directories
// the test killers run, without the driver's own.
func testPackages(src string, patterns []string) []string {
	out, err := run(src, "go", append([]string{"list", "-f", "{{.Dir}}"}, patterns...)...)
	if err != nil {
		log.Fatalf("listing %v: %v\n%s", patterns, err, out)
	}
	var pkgs []string
	for _, dir := range strings.Fields(out) {
		rel, err := filepath.Rel(src, dir)
		if err != nil || filepath.ToSlash(rel) == selfDir {
			continue
		}
		pkgs = append(pkgs, "./"+filepath.ToSlash(rel))
	}
	return pkgs
}

// racePatterns reads the package patterns of the Makefile's race
// target, so the driver follows it when it changes.
func racePatterns(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	inRace := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "race:") {
			inRace = true
			continue
		}
		if inRace && strings.Contains(line, "test -race") {
			var pkgs []string
			for _, f := range strings.Fields(line) {
				if strings.HasPrefix(f, "./") {
					pkgs = append(pkgs, f)
				}
			}
			return pkgs
		}
	}
	log.Fatal("no `test -race` line under the Makefile's race target")
	return nil
}

// apply writes m into the copy and returns the function that undoes it.
func apply(src string, m mutant) (restore func()) {
	file := filepath.Join(src, filepath.FromSlash(m.file))
	data, err := os.ReadFile(file)
	if err != nil {
		log.Fatalf("mutant %s: %v", m.id, err)
	}
	if n := strings.Count(string(data), m.old); n != 1 {
		log.Fatalf("catalogue error: mutant %s: old text occurs %d times in %s", m.id, n, m.file)
	}
	mutated := strings.Replace(string(data), m.old, m.new, 1)
	if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
		log.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

// run executes a command in dir with a generous guard deadline and
// returns its combined output.
func run(dir, name string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

var (
	findingRE = regexp.MustCompile(`(?m)^\S+:\d+:\d+: .* \((\w+)\)$`)
	failRE    = regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)
)

// score runs every killer against the copy as it stands and returns
// the ones that fired, each with a short note: the failing tests, or
// the analyzers that reported.
func score(src, vetBin, pkg string, race []string) map[string]string {
	kills := map[string]string{}
	if _, err := run(src, "go", "vet", "./..."); err != nil {
		kills["vet"] = "x"
	}
	out, err := run(src, vetBin, "./...")
	if err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			log.Fatalf("reschedvet failed to run: %v\n%s", err, out)
		}
		seen := map[string]bool{}
		for _, m := range findingRE.FindAllStringSubmatch(out, -1) {
			seen[m[1]] = true
		}
		kills["reschedvet"] = joinSorted(seen)
	}
	pkgs := race
	if pkg != "" && !contains(race, pkg) {
		pkgs = append([]string{pkg}, race...)
	}
	if out, err := run(src, "go", append([]string{"test", "-count=1", "-timeout", "180s"}, pkgs...)...); err != nil {
		kills["test"] = failures(out)
	}
	if out, err := run(src, "go", append([]string{"test", "-race", "-timeout", "180s"}, race...)...); err != nil {
		kills["race"] = failures(out)
	}
	return kills
}

// failures summarizes a failing go test run by its first failing
// tests, or by how it died when no test reported.
func failures(out string) string {
	if strings.Contains(out, "panic: test timed out") {
		return "timeout"
	}
	seen := map[string]bool{}
	for _, m := range failRE.FindAllStringSubmatch(out, -1) {
		seen[m[1]] = true
	}
	if len(seen) == 0 {
		if strings.Contains(out, "DATA RACE") {
			return "DATA RACE"
		}
		return "x"
	}
	names := joinSorted(seen)
	if n := strings.Count(names, ","); n >= 2 {
		first := strings.SplitN(names, ", ", 3)
		return fmt.Sprintf("%s, %s +%d", first[0], first[1], n-1)
	}
	return names
}

func joinSorted(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// printMatrix writes the kill matrix: one row per mutant, one column
// per killer; an empty row is a survivor.
func printMatrix(kills []map[string]string) {
	fmt.Printf("| mutant | file | %s |\n", strings.Join(killers, " | "))
	fmt.Printf("|---|---|%s\n", strings.Repeat("---|", len(killers)))
	survivors := 0
	for i, m := range catalogue {
		cells := make([]string, len(killers))
		for k, name := range killers {
			cells[k] = kills[i][name]
		}
		if len(kills[i]) == 0 {
			survivors++
		}
		fmt.Printf("| `%s` | `%s` | %s |\n", m.id, m.file, strings.Join(cells, " | "))
	}
	fmt.Printf("\n%d mutants, %d survivors\n", len(catalogue), survivors)
}
