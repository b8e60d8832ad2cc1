package main

// End-to-end tests for the reschedvet binary: build it once, then run
// it from inside tiny fixture modules under testdata/ (each its own
// `module resched`, so the serving-package paths match the real
// tree's) and assert on output and exit codes:
//
//	0 — clean (directive-suppressed finding)
//	1 — findings survive
//	2 — the packages could not be loaded at all
//
// Exercising the process boundary is the point; the analyzers
// themselves are unit-tested in their own packages.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var buildOnce struct {
	sync.Once
	bin string
	err error
}

// vetBinary builds the reschedvet binary once per test run.
func vetBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "reschedvet-e2e")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "reschedvet")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildOnce.err = err
			os.RemoveAll(dir)
			return
		}
		_ = out
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatalf("building reschedvet: %v", buildOnce.err)
	}
	return buildOnce.bin
}

// runVet executes the built binary with its working directory inside
// the named fixture module, returning combined output and exit code.
func runVet(t *testing.T, fixture string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(vetBinary(t), args...)
	cmd.Dir = filepath.Join("testdata", fixture)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running reschedvet in %s: %v\n%s", fixture, err, out)
	}
	return string(out), ee.ExitCode()
}

func TestE2EFindingsExitOne(t *testing.T) {
	out, code := runVet(t, "findings")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "(errdrop)") {
		t.Errorf("output does not name the errdrop finding:\n%s", out)
	}
	if !strings.Contains(out, "internal/server/server.go:") {
		t.Errorf("output does not point at the offending file:\n%s", out)
	}
}

func TestE2EIgnoreDirectiveSuppresses(t *testing.T) {
	out, code := runVet(t, "ignored", "./internal/server")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (directive should suppress)\n%s", code, out)
	}
	if strings.Contains(out, "errdrop") {
		t.Errorf("suppressed finding still reported:\n%s", out)
	}
}

// An ignore naming an analyzer the suite does not have (here one that
// was deleted) silences nothing and is reported where it stands.
func TestE2EUnknownIgnoreReported(t *testing.T) {
	out, code := runVet(t, "ignored")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (unknown analyzer in an ignore)\n%s", code, out)
	}
	if !strings.Contains(out, "internal/stale/stale.go:7:") || !strings.Contains(out, `names no analyzer: "lockcycle"`) {
		t.Errorf("unknown ignore not reported at its line:\n%s", out)
	}
	if strings.Contains(out, "errdrop") {
		t.Errorf("a valid ignore stopped suppressing:\n%s", out)
	}
}

func TestE2EBrokenImportExitTwo(t *testing.T) {
	out, code := runVet(t, "broken")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (load failure)\n%s", code, out)
	}
	if !strings.Contains(out, "reschedvet:") {
		t.Errorf("load failure not reported on stderr:\n%s", out)
	}
}

func TestE2ENoPackagesMatchedExitTwo(t *testing.T) {
	out, code := runVet(t, "findings", "./nosuchdir/...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (no packages matched)\n%s", code, out)
	}
}

func TestE2EListExitsClean(t *testing.T) {
	out, code := runVet(t, "findings", "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	for _, name := range []string{"refguard", "ctxflow", "modeexhaustive", "lockhold", "errdrop", "wgleak", "guardedby", "atomicmix", "chanflow"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

// runVetStdout is runVet with stdout and stderr separated, for output
// that must parse as a single document.
func runVetStdout(t *testing.T, fixture string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(vetBinary(t), args...)
	cmd.Dir = filepath.Join("testdata", fixture)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		return stdout.String(), stderr.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running reschedvet in %s: %v\n%s%s", fixture, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String(), ee.ExitCode()
}

// sarifDoc mirrors the SARIF-lite shape the -json flag promises;
// unknown fields in the real output are fine, missing ones are not.
type sarifDoc struct {
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Level   string `json:"level"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine   int `json:"startLine"`
						StartColumn int `json:"startColumn"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

func TestE2EJSONFindings(t *testing.T) {
	stdout, _, code := runVetStdout(t, "findings", "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, stdout)
	}
	var doc sarifDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "reschedvet" {
		t.Errorf("driver name = %q, want reschedvet", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no short description", r.ID)
		}
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"errdrop", "lockhold", "guardedby", "ignore"} {
		if !ruleIDs[want] {
			t.Errorf("rules missing %s", want)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("findings fixture produced no results")
	}
	for i, res := range run.Results {
		if !ruleIDs[res.RuleID] {
			t.Errorf("result %d ruleId %q not among declared rules", i, res.RuleID)
		}
		if res.Level != "warning" {
			t.Errorf("result %d level = %q, want warning", i, res.Level)
		}
		if res.Message.Text == "" {
			t.Errorf("result %d has an empty message", i)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Errorf("result %d URI = %q, want non-empty forward-slash path", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 || loc.Region.StartColumn <= 0 {
			t.Errorf("result %d region = %+v, want positive line and column", i, loc.Region)
		}
	}
}

func TestE2EJSONCleanHasEmptyResults(t *testing.T) {
	stdout, _, code := runVetStdout(t, "ignored", "-json", "./internal/server")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, stdout)
	}
	var doc sarifDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	if len(doc.Runs) != 1 || len(doc.Runs[0].Results) != 0 {
		t.Errorf("clean run should have one run with zero results:\n%s", stdout)
	}
	// The document must literally carry an empty results array, not
	// omit or null it — downstream SARIF consumers require the key.
	if !strings.Contains(stdout, `"results": []`) {
		t.Errorf("results array not rendered as []:\n%s", stdout)
	}
}

func TestE2EFactsDump(t *testing.T) {
	out, code := runVet(t, "ignored", "-facts", "./internal/server")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	// persist() carries no flow facts, but the fixture must at least
	// not crash the encoder; a fact line, if any, is JSON per package.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line != "" && !strings.HasPrefix(line, "facts[") {
			t.Errorf("unexpected non-fact output line: %q", line)
		}
	}
}
