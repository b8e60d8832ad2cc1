package main

// SARIF-lite output: the subset of SARIF 2.1.0 that CI annotators and
// editors consume — one run, the analyzer set as the tool's rules, and
// one result per finding with a single physical location. Nothing here
// depends on the SARIF schema beyond field names; the e2e test pins
// the shape.

import (
	"encoding/json"
	"io"
	"path/filepath"

	"resched/internal/analysis"
)

type sarifLog struct {
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF renders the diagnostics as one SARIF run. URIs are
// cwd-relative with forward slashes where possible, matching the
// plain-text output's paths. Results keep RunAnalyzersFacts's
// deterministic order.
func writeSARIF(w io.Writer, cwd string, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{ID: analysis.IgnoreCheck,
		ShortDescription: sarifText{Text: "a //reschedvet:ignore directive names an analyzer of this run"}})
	results := make([]sarifResult, len(diags))
	for i, d := range diags {
		results[i] = sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relPath(cwd, d.Pos.Filename))},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		}
	}
	log := sarifLog{
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "reschedvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath relativizes a diagnostic path against cwd when the result
// stays inside it.
func relPath(cwd, name string) string {
	if cwd == "" {
		return name
	}
	if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return name
}
