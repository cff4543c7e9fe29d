package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The interprocedural analyzers are summary-based: each computes one
// small fact record per function (what taint a result carries, which
// domain a parameter is demanded in, whether a call allocates) and
// reaches a module-wide fixpoint by iterating each call-graph SCC
// until its members' summaries stop changing. Summaries must be
// monotone — facts only accumulate — so the iteration terminates; the
// cap below is a safety net, never the expected exit.

// fixpointCap bounds the iterations spent on one SCC. Lattices here
// are tiny (bitmasks, three-valued domains, one reason string), so real
// convergence takes a handful of rounds; hitting the cap would mean a
// non-monotone transfer function, and stopping early is still sound
// for reporting (facts computed so far remain true).
const fixpointCap = 64

// fixpoint drives transfer over every function bottom-up. transfer
// returns whether the function's summary changed; each SCC is
// re-iterated until a full round reports no change.
func (prog *Program) fixpoint(transfer func(*FuncNode) bool) {
	for _, scc := range prog.SCCs {
		for round := 0; round < fixpointCap; round++ {
			changed := false
			for _, fn := range scc {
				if transfer(fn) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// rootObj resolves the base identifier an lvalue-ish expression reads
// or writes through: selectors, indexing, dereferences, and slicing
// all track back to their root (x.f.g[i] -> x). Returns nil for
// expressions with no identifier root (calls, literals).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			// A qualified identifier (pkg.Name) roots at the named
			// object, not the package.
			if _, ok := info.ObjectOf(x.Sel).(*types.Var); !ok {
				return info.ObjectOf(x.Sel)
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isConversion reports whether the call expression is a type
// conversion, returning the target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.TypeName); ok {
			return info.TypeOf(call), true
		}
	case *ast.SelectorExpr:
		if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
			return info.TypeOf(call), true
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType, *ast.StructType, *ast.StarExpr:
		return info.TypeOf(call), true
	}
	return nil, false
}

// paramIndexOf returns the position of obj in the function's parameter
// list, or -1. Parameters beyond 64 are untracked (the taint bitmask
// width); no function in this module comes close.
func paramIndexOf(sig *types.Signature, obj types.Object) int {
	for i := 0; i < sig.Params().Len() && i < 64; i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// viaChain annotates a taint-source description with the helper it was
// laundered through, keeping only the first hop so messages stay
// short: "time.Now (via stamp)".
func viaChain(src, helper string) string {
	if i := strings.Index(src, " (via "); i >= 0 {
		return src
	}
	return src + " (via " + helper + ")"
}
