// Command cachelint runs the repository's domain static analyses over
// the module: determinism (no wall clock, no global math/rand, no
// order-sensitive map iteration), CAT-mask validity (constant masks
// must be non-empty and contiguous), explicit cache-usage identifiers
// on job phases, no discarded resctrl/os errors, and lock safety.
//
// Usage:
//
//	cachelint [-tier intra|inter|perf|all[,...]] [-checks nondet,...] [-baseline file] [-json] [-list] [packages]
//
// Packages default to ./... relative to the enclosing module. The
// exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 on usage or load errors. Diagnostics print as
// "file:line:col: [check] message"; intentional exceptions are
// annotated in the source with "//lint:allow <check> <reason>".
//
// -tier selects the analysis tiers to run, as a comma-separated list —
// "intra" (single-package correctness), "inter" (interprocedural
// correctness), "perf" (hot-path performance over the //perf:hot
// reachability set) — or "all" (the default). Unknown tier names are a
// usage error. -checks narrows further to named checks.
//
// -baseline reads a JSONL file of accepted findings (same schema as
// -json output) and suppresses any current finding matching an entry
// by (file, check, message), ignoring line and column so unrelated
// edits do not invalidate it. An entry that names a tier only matches
// findings of that tier. scripts/check.sh passes the checked-in
// .cachelint-baseline.jsonl.
//
// With -json each diagnostic prints as one JSON object per line
// (file, line, col, check, tier, message, allowed). This mode
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
		tier     = flag.String("tier", "all", "comma-separated analysis tiers to run: intra, inter, perf or all")
		checks   = flag.String("checks", "", "comma-separated subset of checks to run (default: the selected tier)")
		baseline = flag.String("baseline", "", "JSONL file of accepted findings to suppress, matched by (file, check, message)")
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
			fmt.Printf("%-12s %-6s %s\n", a.Name, a.Tier, a.Doc)
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

	analyzers, err := selectAnalyzers(*tier, *checks)
	if err != nil {
		fatal(err)
	}
	accepted, err := loadBaseline(*baseline)
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
	tierOf := make(map[string]string)
	for _, a := range lint.Analyzers() {
		tierOf[a.Name] = a.Tier
	}
	diags := lint.Run(loader, pkgs, analyzers, cfg)
	failing, baselined := 0, 0
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		if accepted[baselineKey(pos.Filename, d.Check, "", d.Message)] ||
			accepted[baselineKey(pos.Filename, d.Check, tierOf[d.Check], d.Message)] {
			baselined++
			continue
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
				Tier:    tierOf[d.Check],
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
	if baselined > 0 {
		fmt.Fprintf(os.Stderr, "cachelint: %d finding(s) suppressed by baseline %s\n", baselined, *baseline)
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
	Tier    string `json:"tier"`
	Message string `json:"message"`
	Allowed bool   `json:"allowed"`
}

// selectAnalyzers resolves the -tier and -checks flags against the
// registry. -tier is a comma-separated list of tiers ("intra,perf");
// "all" selects every tier; unknown names are a usage error. -checks
// narrows within the selected tiers' suite.
func selectAnalyzers(tier, checks string) ([]*lint.Analyzer, error) {
	selected := make(map[string]bool)
	for _, t := range strings.Split(tier, ",") {
		t = strings.TrimSpace(t)
		switch {
		case t == "":
			continue
		case t == "all":
			for _, k := range lint.Tiers() {
				selected[k] = true
			}
		default:
			known := false
			for _, k := range lint.Tiers() {
				if k == t {
					known = true
				}
			}
			if !known {
				return nil, fmt.Errorf("cachelint: unknown tier %q (intra, inter, perf or all)", t)
			}
			selected[t] = true
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("cachelint: -tier selects no tier (intra, inter, perf or all)")
	}
	var all []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		if selected[a.Tier] {
			all = append(all, a)
		}
	}
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("cachelint: unknown check %q in tier %q (use -list)", name, tier)
		}
		out = append(out, a)
	}
	return out, nil
}

// baselineKey is the identity a baseline entry matches on: file, check
// and message, but not line or column, so edits elsewhere in the file
// do not invalidate accepted findings. A non-empty tier narrows the
// entry to findings of that tier.
func baselineKey(file, check, tier, message string) string {
	return file + "\x00" + check + "\x00" + tier + "\x00" + message
}

// loadBaseline reads a JSONL baseline of accepted findings. Blank
// lines and #-comments are skipped, so an empty baseline can document
// its own format.
func loadBaseline(path string) (map[string]bool, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cachelint: reading baseline: %w", err)
	}
	accepted := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var d jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			return nil, fmt.Errorf("cachelint: baseline %s:%d: %v", path, i+1, err)
		}
		accepted[baselineKey(d.File, d.Check, d.Tier, d.Message)] = true
	}
	return accepted, nil
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
