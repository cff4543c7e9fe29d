package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachepart/internal/lint"
)

func analyzerNames(as []*lint.Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

func TestSelectAnalyzersTierList(t *testing.T) {
	got, err := selectAnalyzers("intra,perf", "")
	if err != nil {
		t.Fatal(err)
	}
	tiers := make(map[string]bool)
	for _, a := range got {
		tiers[a.Tier] = true
	}
	if !tiers[lint.TierIntra] || !tiers[lint.TierPerf] || len(tiers) != 2 {
		t.Errorf("tiers selected by intra,perf: %v", tiers)
	}
	// Suite order is preserved: the selection must be a subsequence of
	// the full analyzer list.
	all := analyzerNames(lint.Analyzers())
	i := 0
	for _, name := range analyzerNames(got) {
		for i < len(all) && all[i] != name {
			i++
		}
		if i == len(all) {
			t.Fatalf("selection order diverges from suite order at %s", name)
		}
	}
}

func TestSelectAnalyzersAll(t *testing.T) {
	got, err := selectAnalyzers("all", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lint.Analyzers()) {
		t.Errorf("all selected %d analyzers, want %d", len(got), len(lint.Analyzers()))
	}
	// Duplicate tier names collapse.
	dup, err := selectAnalyzers("perf,perf", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(lint.AnalyzersForTier(lint.TierPerf)); len(dup) != want {
		t.Errorf("perf,perf selected %d analyzers, want %d", len(dup), want)
	}
}

func TestSelectAnalyzersErrors(t *testing.T) {
	if _, err := selectAnalyzers("bogus", ""); err == nil || !strings.Contains(err.Error(), `unknown tier "bogus"`) {
		t.Errorf("unknown tier: err = %v", err)
	}
	if _, err := selectAnalyzers("intra,,bogus", ""); err == nil || !strings.Contains(err.Error(), `unknown tier "bogus"`) {
		t.Errorf("unknown tier in list: err = %v", err)
	}
	// The retired concurrency tier is an unknown tier like any other.
	if _, err := selectAnalyzers("conc", ""); err == nil || !strings.Contains(err.Error(), `unknown tier "conc"`) {
		t.Errorf("retired tier: err = %v", err)
	}
	if _, err := selectAnalyzers("", ""); err == nil || !strings.Contains(err.Error(), "selects no tier") {
		t.Errorf("empty tier: err = %v", err)
	}
	// A check outside the selected tiers is a usage error.
	if _, err := selectAnalyzers("intra", "hotalloc"); err == nil || !strings.Contains(err.Error(), `unknown check "hotalloc"`) {
		t.Errorf("check outside tier: err = %v", err)
	}
}

func TestSelectAnalyzersChecksNarrow(t *testing.T) {
	got, err := selectAnalyzers("perf", "hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "hotalloc" {
		t.Errorf("perf/hotalloc selected %v", analyzerNames(got))
	}
}

func TestBaselineTierMatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.jsonl")
	lines := []string{
		`# comment`,
		``,
		`{"file":"a.go","check":"hotalloc","tier":"perf","message":"m1"}`,
		`{"file":"b.go","check":"bounds","message":"m2"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	accepted, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	// An entry with a tier matches only under that tier's key; one
	// without matches under the tierless key — main checks both forms
	// for every finding.
	if !accepted[baselineKey("a.go", "hotalloc", "perf", "m1")] {
		t.Error("tiered entry missing under tiered key")
	}
	if accepted[baselineKey("a.go", "hotalloc", "", "m1")] {
		t.Error("tiered entry must not match the tierless key")
	}
	if !accepted[baselineKey("b.go", "bounds", "", "m2")] {
		t.Error("tierless entry missing under tierless key")
	}
	if accepted[baselineKey("b.go", "bounds", "intra", "m2")] {
		t.Error("tierless entry must not match a tiered key")
	}
}

func TestLoadBaselineRejectsBadJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.jsonl")
	if err := os.WriteFile(path, []byte("{not json}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(path); err == nil {
		t.Error("malformed baseline line accepted")
	}
}
