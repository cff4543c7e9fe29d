package lint

import (
	"runtime"
	"sort"
	"sync"
)

// Analyzers returns every domain analyzer in stable order: the
// per-package checks, the interprocedural ones over the call graph,
// then the hot-path check over the //perf:hot reachability set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism,
		MaskCheck,
		CUIDCheck,
		ErrCheck,
		TaintFlow,
		TimeUnits,
		HotAlloc,
	}
}

// Run executes the analyzers over the packages and returns the
// surviving diagnostics sorted by position. Type-check failures and
// malformed //lint:allow directives are reported as diagnostics of the
// pseudo-checks "typecheck" and "directive". Per-package analyzers run
// concurrently across packages; the output is identical to a serial
// run (TestRunParallelMatchesSerial pins this down).
func Run(loader *Loader, pkgs []*Package, analyzers []*Analyzer, cfg Config) []Diagnostic {
	return run(loader, pkgs, analyzers, cfg, runtime.GOMAXPROCS(0))
}

// run is Run with an explicit worker count, so tests can compare
// serial and parallel executions directly.
func run(loader *Loader, pkgs []*Package, analyzers []*Analyzer, cfg Config, workers int) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var perPkg, module []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			module = append(module, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	// Fan packages out over a bounded worker pool. Each package's
	// diagnostics land in its own slot and are merged in input order,
	// so scheduling cannot reorder output; loaded packages are
	// read-only during analysis, so sharing them across goroutines is
	// safe.
	if workers < 1 {
		workers = 1
	}
	results := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = analyzePackage(loader, pkg, perPkg, cfg, known)
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}

	// Module analyzers need the whole program at once; they run after
	// the fan-out, serially, over the shared call graph.
	if len(module) > 0 {
		prog := buildProgram(loader, pkgs)
		byFile := make(map[string]*Package)
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				byFile[loader.Fset.Position(f.Pos()).Filename] = pkg
			}
		}
		for _, a := range module {
			pass := &ModulePass{
				Analyzer: a,
				Config:   cfg,
				Fset:     loader.Fset,
				Prog:     prog,
				byFile:   byFile,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.RunModule(pass)
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].less(diags[j]) })
	return dedup(diags)
}

// analyzePackage runs the per-package analyzers and pseudo-checks over
// one package, returning its diagnostics unsorted (the caller sorts
// the merged set).
func analyzePackage(loader *Loader, pkg *Package, analyzers []*Analyzer, cfg Config, known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, terr := range pkg.TypeErrors {
		diags = append(diags, Diagnostic{
			Pos:     terr.Fset.Position(terr.Pos),
			Check:   "typecheck",
			Message: terr.Msg,
		})
	}
	diags = append(diags, pkg.directiveProblems(known)...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Config:   cfg,
			Fset:     loader.Fset,
			Pkg:      pkg,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		a.Run(pass)
	}
	return diags
}

// dedup drops exact duplicate diagnostics (a file shared between
// passes, or the same node reported through two paths).
func dedup(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			out = append(out, d)
		}
	}
	return out
}
