// Command cachelint runs the repository's two domain static analyses
// over the module: determinism (no wall clock, no global math/rand, no
// order-sensitive map iteration) and no discarded resctrl/os errors.
//
// Usage:
//
//	cachelint [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. The
// exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 on usage or load errors. Diagnostics print as
// "file:line:col: [check] message"; intentional exceptions are
// annotated in the source with "//lint:allow <check> <reason>", the
// one escape hatch; a nondet exception is honoured only in a main
// package.
//
// With -json each diagnostic prints as one JSON object per line
// (file, line, col, check, message, allowed). This mode
// additionally includes findings suppressed by //lint:allow, marked
// "allowed":true, so CI can audit the escape hatch; only unsuppressed
// findings set the exit status. CI feeds this stream to a GitHub
// problem matcher (.github/cachelint-matcher.json) to surface findings
// as annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cachepart/internal/lint"
)

func main() {
	jsonMode := flag.Bool("json", false, "print one JSON object per diagnostic, including allowed findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cachelint [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
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

	failing, err := printDiagnostics(os.Stdout, lint.Run(loader, pkgs, lint.Analyzers()), cwd, *jsonMode)
	if err != nil {
		fatal(err)
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "cachelint: %d problem(s) in %d package(s)\n", failing, len(pkgs))
		os.Exit(1)
	}
}

// printDiagnostics writes the diagnostics to w with filenames relative
// to cwd, and returns how many are not allowed. Findings suppressed by
// //lint:allow are printed only in JSON mode.
func printDiagnostics(w io.Writer, diags []lint.Diagnostic, cwd string, jsonMode bool) (int, error) {
	failing := 0
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		if !d.Allowed {
			failing++
		}
		if jsonMode {
			line, err := json.Marshal(jsonDiagnostic{pos.Filename, pos.Line, pos.Column, d.Check, d.Message, d.Allowed})
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(w, "%s\n", line)
		} else if !d.Allowed {
			fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Check, d.Message)
		}
	}
	return failing, nil
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
