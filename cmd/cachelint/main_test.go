package main

import (
	"strings"
	"testing"

	"cachepart/internal/lint"
)

func TestSelectAnalyzersAll(t *testing.T) {
	got, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lint.Analyzers()) {
		t.Errorf("no -checks selected %d analyzers, want %d", len(got), len(lint.Analyzers()))
	}
}

func TestSelectAnalyzersErrors(t *testing.T) {
	if _, err := selectAnalyzers("bogus"); err == nil || !strings.Contains(err.Error(), `unknown check "bogus"`) {
		t.Errorf("unknown check: err = %v", err)
	}
	// The deleted checks are unknown like any other name.
	for _, gone := range []string{"locks", "lockorder", "hotdispatch", "hotdefer", "hotbatch"} {
		if _, err := selectAnalyzers("nondet," + gone); err == nil || !strings.Contains(err.Error(), `unknown check "`+gone+`"`) {
			t.Errorf("deleted check %s: err = %v", gone, err)
		}
	}
}

func TestSelectAnalyzersChecksNarrow(t *testing.T) {
	got, err := selectAnalyzers("hotalloc, nondet")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "hotalloc" || got[1].Name != "nondet" {
		t.Errorf("hotalloc,nondet selected %v", got)
	}
}
