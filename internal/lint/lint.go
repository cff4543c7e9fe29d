// Package lint is a self-contained static-analysis framework for this
// repository, built only on the standard library (go/parser, go/ast,
// go/types with the source importer) so it runs offline with zero
// module dependencies.
//
// The simulator's correctness rests on two invariants the compiler
// cannot see and no test trips over: runs must be bit-for-bit
// deterministic under a fixed seed, and errors from resctrl writes
// must not be dropped. Each is one Analyzer; Run applies them in turn,
// on one goroutine, and cmd/cachelint runs them over the module. The
// rest of the gate lives in the runtime and the tests: the engine
// rejects a phase without a cache-usage identifier when it starts, cat
// rejects a non-contiguous or empty mask at every write, the alloc
// budgets name the line that allocates on a hot path, and exec's
// TestSimulatorStartsNoGoroutines bans go statements and the "sync"
// import from the packages that hold a run, and "time" from every
// simulator package, so no lock, goroutine or wall-clock duration
// reaches a run. The ban lists packages; it does not cover all that
// can reach a Machine. The module's two helpers are column's
// StartCountInRange and workload's EncodeUniformColumns, which encodes
// the first half of a list of generated columns' draws from a copy of
// its source and finishes before any System runs.
//
// Intentional exceptions are annotated in the source with
//
//	//lint:allow <check> <reason>
//
// on the flagged line or the line directly above it. A nondet
// exception is honoured only in a main package.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check. Run sees the whole analyzed package
// set at once and loops over Pass.Pkgs.
type Analyzer struct {
	// Name is the check identifier used in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-line description of the invariant the check guards.
	Doc string
	// Run inspects the analyzed packages and reports through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of the analyzed package set.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Module is the loaded module path; analyzers name the types and
	// packages they check relative to it.
	Module string
	Pkgs   []*Package

	// byFile maps source filenames to their analyzed package, the
	// reporting set — positions in packages loaded only as
	// dependencies of the analysis are dropped.
	byFile map[string]*Package
	diags  []Diagnostic
}

// Reportf records a diagnostic at pos when it falls inside an analyzed
// package, marked Allowed when a //lint:allow directive suppresses it.
// A nondet finding can be allowed only in a main package: a library
// helper that reads the wall clock or the global rand under an allow
// would hand that value to every caller, which no check follows.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	pkg := p.byFile[position.Filename]
	if pkg == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	allowed := pkg.allowed(position, p.Analyzer.Name)
	if allowed && p.Analyzer.Name == "nondet" && pkg.Types.Name() != "main" {
		allowed = false
		msg += "; //lint:allow nondet is honoured only in main packages"
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: msg,
		Allowed: allowed,
	})
}

// Diagnostic is one finding, rendered as "file:line:col: [check] msg".
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// Allowed marks a finding suppressed by a //lint:allow directive;
	// it does not count as a problem.
	Allowed bool
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	if d.Allowed {
		s += " (allowed)"
	}
	return s
}

// compare orders diagnostics for stable output. Whether a finding is
// allowed follows from its place and check, so no two differ in that
// alone.
func (d Diagnostic) compare(o Diagnostic) int {
	return cmp.Or(
		strings.Compare(d.Pos.Filename, o.Pos.Filename),
		cmp.Compare(d.Pos.Line, o.Pos.Line),
		cmp.Compare(d.Pos.Column, o.Pos.Column),
		strings.Compare(d.Check, o.Check),
		strings.Compare(d.Message, o.Message),
	)
}

// under reports whether path equals or is nested below any prefix.
func under(path string, prefixes ...string) bool {
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
