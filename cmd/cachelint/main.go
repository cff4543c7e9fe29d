// Command cachelint runs the repository's domain static analyses over
// the module: determinism (no wall clock, no global math/rand, no
// order-sensitive map iteration, no nondeterministic value reaching
// simulator state), CAT-mask validity (constant masks must be
// non-empty and contiguous), explicit cache-usage identifiers on job
// phases, no discarded resctrl/os errors, no mixing of cycle and
// wall-clock units, and no allocation or integer-keyed map on the
// //perf:hot path.
//
// Usage:
//
//	cachelint [-checks nondet,...] [-json] [-list] [packages]
//
// Packages default to ./... relative to the enclosing module. The
// exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 on usage or load errors. Diagnostics print as
// "file:line:col: [check] message"; intentional exceptions are
// annotated in the source with "//lint:allow <check> <reason>", the
// one escape hatch. -checks runs a subset of the checks -list prints.
//
// With -json each diagnostic prints as one JSON object per line
// (file, line, col, check, message, allowed). This mode
// additionally includes findings suppressed by //lint:allow, marked
// "allowed":true, so CI can audit the escape hatch; only unsuppressed
// findings set the exit status. CI feeds this stream to a GitHub
// problem matcher (.github/cachelint-matcher.json) to surface findings
// as annotations.
//
// The tool builds from the standard library alone (go/parser, go/ast,
// go/types with the source importer), so it needs no module
// dependencies and runs offline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cachepart/internal/lint"
)

func main() {
	var (
		checks   = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list     = flag.Bool("list", false, "list the available checks and exit")
		jsonMode = flag.Bool("json", false, "print one JSON object per diagnostic, including allowed findings")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cachelint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fatal(err)
	}

	cwd, _ := os.Getwd()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Package patterns are relative to the working directory, as with
	// the go tool; the loader itself resolves against the module root.
	for i, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" {
			base = "."
		}
		if !filepath.IsAbs(base) && cwd != "" {
			base = filepath.Join(cwd, base)
		}
		if recursive {
			base += "/..."
		}
		patterns[i] = base
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fatal(err)
	}
	pkgs := make([]*lint.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	cfg := lint.DefaultConfig(loader.Module)
	cfg.ReportAllowed = *jsonMode
	failing := 0
	for _, d := range lint.Run(loader, pkgs, analyzers, cfg) {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		if !d.Allowed {
			failing++
		}
		if *jsonMode {
			line, err := json.Marshal(jsonDiagnostic{
				File:    pos.Filename,
				Line:    pos.Line,
				Col:     pos.Column,
				Check:   d.Check,
				Message: d.Message,
				Allowed: d.Allowed,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
			continue
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Check, d.Message)
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "cachelint: %d problem(s) in %d package(s)\n", failing, len(pkgs))
		os.Exit(1)
	}
}

// jsonDiagnostic is the -json line format. Field order is fixed so the
// output is byte-stable and the CI problem matcher can anchor on it.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
	Allowed bool   `json:"allowed"`
}

// selectAnalyzers resolves the -checks flag against the registry: ""
// is the whole suite, otherwise a comma-separated list of check names;
// an unknown name is a usage error.
func selectAnalyzers(checks string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(checks, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("cachelint: unknown check %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cachelint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(2)
}
