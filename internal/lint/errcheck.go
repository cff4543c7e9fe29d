package lint

import (
	"go/ast"
	"go/types"
)

// ErrCheck is a focused errcheck: error returns from the resctrl
// layer and from os file operations must not be discarded implicitly.
// A failed schemata write or task move means the partitioning scheme
// the experiment believes it is running is not the one programmed into
// the (simulated) hardware — silently ignoring it invalidates every
// number downstream. Explicit discards (`_ = f()`) remain visible in
// review and are allowed; bare call statements, go, and defer are not.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "error returns from resctrl writes and os file ops must not be discarded",
	Run:  runErrCheck,
}

// The resctrl layer and the fault injector, relative to the module
// path. Their error returns and those of package os must not be
// discarded.
const (
	resctrlPkg = "/internal/resctrl"
	faultPkg   = "/internal/fault"
)

func runErrCheck(p *Pass) {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				kind := ""
				switch s := n.(type) {
				case *ast.ExprStmt:
					call, _ = s.X.(*ast.CallExpr)
				case *ast.GoStmt:
					call, kind = s.Call, "go statement "
				case *ast.DeferStmt:
					call, kind = s.Call, "deferred "
				default:
					return true
				}
				if call == nil {
					return true
				}
				fn, ok := calleeObj(pkg.Info, call).(*types.Func)
				if !ok || !returnsError(fn) {
					return true
				}
				if !under(pkgPathOf(fn), "os", p.Module+resctrlPkg, p.Module+faultPkg) {
					return true
				}
				p.Reportf(call.Pos(), "%scall discards the error from %s.%s; handle it or assign it explicitly",
					kind, fn.Pkg().Name(), fn.Name())
				return true
			})
		}
	}
}

// returnsError reports whether any of the function's results is the
// built-in error type.
func returnsError(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			return true
		}
	}
	return false
}
