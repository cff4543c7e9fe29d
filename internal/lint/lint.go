// Package lint is a self-contained static-analysis framework for this
// repository, built only on the standard library (go/parser, go/ast,
// go/types with the source importer) so it runs offline with zero
// module dependencies.
//
// The simulator's correctness rests on invariants the compiler cannot
// see: runs must be bit-for-bit deterministic under a fixed seed, CAT
// capacity masks must be non-empty and contiguous as the hardware
// requires (PAPER.md Section V), every scheduler job must carry an
// explicit cache-usage identifier, errors from resctrl writes must not
// be dropped, and cycle and wall-clock values must not mix. Two more
// checks keep allocation and integer-keyed maps off the //perf:hot
// path. Each is one Analyzer; cmd/cachelint runs them all over the
// module. Lock copies are go vet's copylocks; lock order needs no
// check, because no package that holds a mutex starts a goroutine
// (exec's TestSimulatorStartsNoGoroutines).
//
// Intentional exceptions are annotated in the source with
//
//	//lint:allow <check> <reason>
//
// on the flagged line or the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Config parameterises the analyzers so the same framework lints both
// the real module and the golden-test fixtures.
type Config struct {
	// ModulePath is the module being linted (from go.mod).
	ModulePath string

	// SimPrefixes lists import-path prefixes inside which the
	// nondeterminism analyzer applies. Simulation results and reports
	// must be reproducible, so by default this is the whole module.
	SimPrefixes []string

	// MaskType is the fully qualified CAT capacity-mask type; constant
	// expressions of this type must be non-empty and contiguous.
	MaskType string

	// MaskPackages lists packages whose call sites take schemata
	// strings; constant string arguments to parameters named
	// "schemata" are validated like masks.
	MaskPackages []string

	// PhaseType is the fully qualified job-phase struct type whose
	// composite literals must set CUIDField explicitly.
	PhaseType string
	CUIDField string

	// ErrPackages lists packages whose error returns must not be
	// discarded implicitly.
	ErrPackages []string

	// SinkPackages lists the packages holding simulator state: the
	// taintflow analyzer reports only when a nondeterministic value
	// reaches a call, composite literal, or field write of one of
	// these packages.
	SinkPackages []string

	// CycleFuncs lists qualified functions ("pkgpath.Name" or
	// "pkgpath.Recv.Name") whose integer results live in the
	// simulator's cycle/tick domain regardless of their names.
	CycleFuncs []string

	// ReportAllowed includes diagnostics suppressed by //lint:allow in
	// the results, marked Allowed — the machine-readable mode surfaces
	// them so reviewers can audit the escape hatch.
	ReportAllowed bool
}

// DefaultConfig returns the repository's production configuration.
func DefaultConfig(module string) Config {
	return Config{
		ModulePath:   module,
		SimPrefixes:  []string{module},
		MaskType:     module + "/internal/cat.WayMask",
		MaskPackages: []string{module + "/internal/cat", module + "/internal/resctrl"},
		PhaseType:    module + "/internal/engine.Phase",
		CUIDField:    "CUID",
		ErrPackages:  []string{"os", module + "/internal/resctrl", module + "/internal/fault"},
		SinkPackages: []string{
			module + "/internal/cachesim",
			module + "/internal/engine",
			module + "/internal/adapt",
			module + "/internal/fault",
			module + "/internal/serve",
		},
		CycleFuncs: []string{
			module + "/internal/cachesim.Machine.Now",
			module + "/internal/cachesim.Machine.MaxNow",
			module + "/internal/cachesim.Machine.Ticks",
			module + "/internal/engine.StreamResult.Percentile",
		},
	}
}

// Analyzer is one named check. Exactly one of Run and RunModule is
// set: Run analyzers inspect one package at a time and may execute in
// parallel across packages; RunModule analyzers see the whole
// analyzed module at once through the shared interprocedural Program
// (call graph plus per-function summaries).
type Analyzer struct {
	// Name is the check identifier used in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-line description of the invariant the check guards.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule inspects the whole analyzed package set at once.
	RunModule func(*ModulePass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Config   Config
	Fset     *token.FileSet
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless an allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	emit(p.report, p.Pkg, p.Config, p.Analyzer.Name, p.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// emit applies the allow-directive policy shared by package and module
// passes: a suppressed diagnostic is dropped, or kept with Allowed set
// when the configuration asks for the full audit trail.
func emit(report func(Diagnostic), pkg *Package, cfg Config, check string, position token.Position, msg string) {
	d := Diagnostic{Pos: position, Check: check, Message: msg}
	if pkg.allowed(position, check) {
		if !cfg.ReportAllowed {
			return
		}
		d.Allowed = true
	}
	report(d)
}

// ModulePass carries one module-level analyzer's view of the whole
// analyzed package set, including the shared interprocedural program.
type ModulePass struct {
	Analyzer *Analyzer
	Config   Config
	Fset     *token.FileSet
	Prog     *Program

	// byFile maps source filenames to their analyzed package, the
	// reporting set — positions in packages loaded only as
	// dependencies of the analysis are dropped.
	byFile map[string]*Package
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos when it falls inside an analyzed
// package and no allow directive suppresses it.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	pkg := p.byFile[position.Filename]
	if pkg == nil {
		return
	}
	emit(p.report, pkg, p.Config, p.Analyzer.Name, position, fmt.Sprintf(format, args...))
}

// analyzed reports whether the function is part of the reporting set
// (as opposed to a dependency loaded only for its summaries).
func (p *ModulePass) analyzed(fn *FuncNode) bool {
	return p.byFile[p.Fset.Position(fn.Decl.Pos()).Filename] != nil
}

// Diagnostic is one finding, rendered as "file:line:col: [check] msg".
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// Allowed marks a finding suppressed by a //lint:allow directive,
	// reported only under Config.ReportAllowed.
	Allowed bool
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	if d.Allowed {
		s += " (allowed)"
	}
	return s
}

// less orders diagnostics for stable output.
func (d Diagnostic) less(o Diagnostic) bool {
	if d.Pos.Filename != o.Pos.Filename {
		return d.Pos.Filename < o.Pos.Filename
	}
	if d.Pos.Line != o.Pos.Line {
		return d.Pos.Line < o.Pos.Line
	}
	if d.Pos.Column != o.Pos.Column {
		return d.Pos.Column < o.Pos.Column
	}
	if d.Check != o.Check {
		return d.Check < o.Check
	}
	if d.Message != o.Message {
		return d.Message < o.Message
	}
	return !d.Allowed && o.Allowed
}

// inSimPackages reports whether the pass's package falls under one of
// the configured simulation prefixes.
func (p *Pass) inSimPackages() bool {
	return underAny(p.Pkg.Path, p.Config.SimPrefixes)
}

// underAny reports whether path equals or is nested below any prefix.
func underAny(path string, prefixes []string) bool {
	for _, pre := range prefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// calleeObj resolves the object a call expression invokes: a function,
// method, builtin, or type (for conversions). Returns nil when the
// callee is not a simple identifier or selector.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// qualifiedName renders a named type as "pkgpath.Name", or "" for
// unnamed types.
func qualifiedName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// pkgPathOf returns the import path of the package defining obj, or ""
// for universe-scope objects (builtins, error).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isPackageFunc reports whether obj is the package-level function
// pkg.name (methods do not match).
func isPackageFunc(obj types.Object, pkg string) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || pkgPathOf(fn) != pkg {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}
