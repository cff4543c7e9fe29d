package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotalloc rejects heap allocation on the hot path. The simulator's
// per-access cost budget (DESIGN.md §12) is "0 allocs/op in steady
// state": one escaping value per Access turns into millions of
// garbage objects per simulated second and dominates the very path
// ROADMAP #3 wants 10× faster. The analyzer flags allocation sites
// that execute unconditionally in hot functions — guarded branches
// (error paths, amortized growth) are deliberately exempt, because the
// budget is about the steady state, not the rare slow path.
//
// Detected allocation shapes: make/new, slice and map literals,
// address-of composite literals, non-constant string concatenation,
// fmt-style boxing of non-pointer values into interface parameters,
// per-iteration append growth on locals, and closures created inside
// loops. Each function also gets an interprocedural summary ("calling
// this allocates, because ...") propagated bottom-up over the SCC
// order, so a hot function calling an allocating helper in another
// package is reported at the call site even when the helper itself is
// outside the analyzed set.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no unconditional heap allocation in //perf:hot code: make/new, composite literals, string building, interface boxing, per-iteration append growth, closures in loops",
	Run:  runHotAlloc,
}

// allocFinding is one allocation site in a function body.
type allocFinding struct {
	pos    token.Pos
	reason string
	// loopOnly marks shapes (append growth, closures) reported only
	// when the site sits inside a loop; they are amortized or one-shot
	// otherwise.
	loopOnly bool
	inLoop   bool
}

// allocCall is one unconditional resolved call site, the edge alloc
// summaries propagate over.
type allocCall struct {
	pos    token.Pos
	callee *FuncNode
}

// allocFacts is the per-function walk result shared by the summary
// fixpoint and the reporting pass.
type allocFacts struct {
	allocs []allocFinding
	calls  []allocCall
}

func runHotAlloc(p *Pass) {
	// Walk every program function once — dependencies included, their
	// summaries are what makes cross-package reporting work.
	facts := make(map[*FuncNode]*allocFacts, len(p.Prog.Funcs))
	for _, fn := range p.Prog.Funcs {
		facts[fn] = collectAllocFacts(p.Prog, fn)
	}

	// Summary fixpoint: a function "allocates per call" when its body
	// holds an unconditional non-loopOnly allocation, or it
	// unconditionally calls a function that does. Monotone: the reason
	// is set once and never changes.
	sums := make(map[*FuncNode]string)
	p.Prog.fixpoint(func(fn *FuncNode) bool {
		if sums[fn] != "" {
			return false
		}
		f := facts[fn]
		for _, a := range f.allocs {
			if !a.loopOnly {
				sums[fn] = a.reason
				return true
			}
		}
		for _, c := range f.calls {
			if s := sums[c.callee]; s != "" {
				sums[fn] = viaChain(s, hotFuncName(c.callee))
				return true
			}
		}
		return false
	})

	forEachHotFunc(p, func(fn *FuncNode, info hotInfo) {
		f := facts[fn]
		for _, a := range f.allocs {
			if a.loopOnly && !a.inLoop {
				continue
			}
			reportHot(p, fn, info, a.pos, "%s", a.reason)
		}
		// Cross-package edge: the callee's own allocation site is
		// outside the reporting set, so the call here is the only place
		// to surface it. Analyzed callees report at their alloc site
		// directly (they are hot by propagation).
		for _, c := range f.calls {
			if s := sums[c.callee]; s != "" && !p.analyzed(c.callee) {
				reportHot(p, fn, info, c.pos, "call to %s allocates: %s", hotFuncName(c.callee), s)
			}
		}
	})
}

// collectAllocFacts walks one body recording unconditional allocation
// sites and unconditional resolved calls. Conditional code is skipped
// wholesale: the steady-state budget does not cover guarded paths.
func collectAllocFacts(prog *Program, fn *FuncNode) *allocFacts {
	f := &allocFacts{}
	info := fn.Pkg.Info
	w := &hotWalker{visit: func(n ast.Node, inLoop, cond bool) {
		if cond {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isConversion(info, n) {
				return
			}
			switch obj := calleeObj(info, n).(type) {
			case *types.Builtin:
				switch obj.Name() {
				case "make":
					f.allocs = append(f.allocs, allocFinding{pos: n.Pos(), reason: "make allocates on every execution; hoist to construction and reuse", inLoop: inLoop})
				case "new":
					f.allocs = append(f.allocs, allocFinding{pos: n.Pos(), reason: "new allocates on every execution; hoist to construction and reuse", inLoop: inLoop})
				}
				return
			case *types.Func:
				if callee := prog.NodeOf(obj); callee != nil {
					f.calls = append(f.calls, allocCall{pos: n.Pos(), callee: callee})
				}
			}
			f.allocs = append(f.allocs, boxedArgs(info, n, inLoop)...)
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				f.allocs = append(f.allocs, allocFinding{pos: n.Pos(), reason: "slice literal allocates; hoist to construction or use a fixed array", inLoop: inLoop})
			case *types.Map:
				f.allocs = append(f.allocs, allocFinding{pos: n.Pos(), reason: "map literal allocates; hoist to construction", inLoop: inLoop})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					f.allocs = append(f.allocs, allocFinding{pos: n.Pos(), reason: "address of composite literal escapes to the heap; reuse a preallocated value", inLoop: inLoop})
				}
			}
		case *ast.BinaryExpr:
			if stringConcat(info, n) {
				f.allocs = append(f.allocs, allocFinding{pos: n.Pos(), reason: "string concatenation allocates; precompute or use a reused buffer", inLoop: inLoop})
			}
		case *ast.AssignStmt:
			for _, pos := range appendGrowth(info, n) {
				f.allocs = append(f.allocs, allocFinding{pos: pos, reason: "append to a local without preallocation grows per iteration; size the slice up front or reuse capacity", loopOnly: true, inLoop: inLoop})
			}
		case *ast.FuncLit:
			f.allocs = append(f.allocs, allocFinding{pos: n.Pos(), reason: "closure allocated per iteration; hoist the function value out of the loop", loopOnly: true, inLoop: inLoop})
		}
	}}
	w.walkBody(fn.Decl.Body)
	return f
}

// stringConcat reports a non-constant string + at the innermost link of
// a concatenation chain (flagging only the innermost keeps one report
// per chain).
func stringConcat(info *types.Info, n *ast.BinaryExpr) bool {
	if n.Op != token.ADD {
		return false
	}
	tv, ok := info.Types[n]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return false
	}
	for _, operand := range []ast.Expr{n.X, n.Y} {
		if inner, ok := ast.Unparen(operand).(*ast.BinaryExpr); ok && stringConcat(info, inner) {
			return false
		}
	}
	return true
}

// boxedArgs flags concrete non-pointer-shaped arguments passed to
// interface parameters: the value is copied to the heap to fit behind
// the interface word. Pointer-shaped values (pointers, maps, channels,
// functions) box without allocating and pass clean.
func boxedArgs(info *types.Info, call *ast.CallExpr, inLoop bool) []allocFinding {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return nil
	}
	var out []allocFinding
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if basic, ok := at.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue
		}
		out = append(out, allocFinding{pos: arg.Pos(), reason: "argument boxed into interface parameter allocates; keep the hot signature concrete", inLoop: inLoop})
	}
	return out
}

// appendGrowth returns the positions of `x = append(x, ...)` growth on
// plain local identifiers. Appends through fields (reused event
// buffers) and self-resetting `append(x[:0], ...)` idioms are
// amortized-zero and pass clean.
func appendGrowth(info *types.Info, assign *ast.AssignStmt) []token.Pos {
	var out []token.Pos
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		builtin, ok := calleeObj(info, call).(*types.Builtin)
		if !ok || builtin.Name() != "append" {
			continue
		}
		if i >= len(assign.Lhs) && len(assign.Lhs) != 1 {
			continue
		}
		lhs := assign.Lhs[0]
		if len(assign.Lhs) > i {
			lhs = assign.Lhs[i]
		}
		ident, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if _, ok := info.ObjectOf(ident).(*types.Var); !ok {
			continue
		}
		if _, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); ok {
			continue
		}
		out = append(out, call.Pos())
	}
	return out
}

// fixpointCap bounds the rounds spent on one SCC. The alloc summary is
// set once and never changes, so real convergence takes a round or
// two; hitting the cap would mean a non-monotone transfer function,
// and stopping early is still sound for reporting (summaries computed
// so far remain true).
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

// isConversion reports whether the call expression is a type
// conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, ok := info.Uses[fun].(*types.TypeName)
		return ok
	case *ast.SelectorExpr:
		_, ok := info.Uses[fun.Sel].(*types.TypeName)
		return ok
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType, *ast.StructType, *ast.StarExpr:
		return true
	}
	return false
}

// viaChain annotates an allocation reason with the helper it was
// reached through, keeping only the first hop so messages stay short:
// "make allocates ... (via grow)".
func viaChain(reason, helper string) string {
	if strings.Contains(reason, " (via ") {
		return reason
	}
	return reason + " (via " + helper + ")"
}
