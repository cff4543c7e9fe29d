package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TaintFlow is the interprocedural successor to the nondet check's
// source-site reports: it tracks values *derived from* nondeterministic
// sources — wall-clock reads, the global math/rand functions,
// map-iteration order, select arrival order — through call chains,
// field assignments, and returns, and reports only where such a value
// reaches simulator state (a call, composite literal, or field write
// of a package holding simulator state). That placement eliminates both
// failure modes of the intra-procedural check: a helper that wraps
// time.Now() no longer launders the value past the analysis (the
// helper's summary says its result is tainted), and timing that only
// feeds operator-facing output no longer needs an annotation at all.
//
// Per-function summaries record (a) whether the results carry taint
// from a concrete source, (b) which parameters flow to the results,
// and (c) which parameters reach a sink inside the function; they are
// computed to fixpoint bottom-up over call-graph SCCs and then a
// report-only pass walks each analyzed function with the final
// summaries. The analysis is object-granular (a tainted field taints
// its whole struct variable), flow-insensitive within a function, and
// ignores implicit flows and interface dispatch — see DESIGN.md §9
// for the soundness caveats.
var TaintFlow = &Analyzer{
	Name: "taintflow",
	Doc:  "no value derived from wall clock, global math/rand, map or select ordering may reach simulator state, across call chains",
	Run:  runTaintFlow,
}

// The packages holding simulator state, relative to the module path
// (with faultPkg): a tainted value reaching a call, composite literal
// or field write of one of them is reported.
const (
	cachesimPkg = "/internal/cachesim"
	enginePkg   = "/internal/engine"
	adaptPkg    = "/internal/adapt"
	servePkg    = "/internal/serve"
)

// sinkPkg reports whether path is one of the simulator-state packages.
func sinkPkg(module, path string) bool {
	return underModule(module, path, cachesimPkg, enginePkg, adaptPkg, faultPkg, servePkg)
}

// taintVal is the dataflow fact attached to one object or expression.
type taintVal struct {
	// src describes the concrete nondeterministic origin ("time.Now",
	// "math/rand.Int (via helper)"), empty when none.
	src string
	// params is a bitmask of the enclosing function's parameters this
	// value derives from, for summary computation.
	params uint64
}

func (t taintVal) zero() bool { return t.src == "" && t.params == 0 }

// merge folds o into t, keeping the first concrete source seen (the
// walk order is deterministic, so so is the choice).
func (t taintVal) merge(o taintVal) taintVal {
	if t.src == "" {
		t.src = o.src
	}
	t.params |= o.params
	return t
}

// taintSummary is one function's interprocedural fact record.
type taintSummary struct {
	// ret is the taint of the function's results: a concrete source
	// description and/or the parameters that flow to a return value.
	ret taintVal
	// paramSink is a bitmask of parameters that reach a simulator-state
	// sink inside this function (transitively).
	paramSink uint64
}

func runTaintFlow(p *Pass) {
	summaries := make(map[*FuncNode]*taintSummary, len(p.Prog.Funcs))
	for _, fn := range p.Prog.Funcs {
		summaries[fn] = &taintSummary{}
	}
	// Phase 1: summaries to fixpoint, no reporting.
	p.Prog.fixpoint(func(fn *FuncNode) bool {
		w := &taintWalker{pass: p, summaries: summaries, fn: fn, sum: summaries[fn]}
		return w.walk()
	})
	// Phase 2: report-only walk of the analyzed functions with the
	// final summaries.
	for _, fn := range p.Prog.Funcs {
		if !p.analyzed(fn) {
			continue
		}
		w := &taintWalker{pass: p, summaries: summaries, fn: fn, sum: summaries[fn], reporting: true}
		w.walk()
	}
}

// taintWalker carries one function's walk state.
type taintWalker struct {
	pass      *Pass
	summaries map[*FuncNode]*taintSummary
	fn        *FuncNode
	sum       *taintSummary
	reporting bool

	state      map[types.Object]taintVal
	sumChanged bool
	iterating  bool // a state change this pass requests another pass
}

// walk analyses the function body to a local fixpoint (loop-carried
// taint needs repeated passes) and reports whether the function's
// summary changed.
func (w *taintWalker) walk() bool {
	sig := w.fn.Obj.Type().(*types.Signature)
	w.state = make(map[types.Object]taintVal)
	for i := 0; i < sig.Params().Len() && i < 64; i++ {
		w.state[sig.Params().At(i)] = taintVal{params: 1 << i}
	}
	for pass := 0; pass < fixpointCap; pass++ {
		w.iterating = false
		w.stmts(w.fn.Decl.Body.List)
		if !w.iterating {
			break
		}
	}
	return w.sumChanged
}

func (w *taintWalker) info() *types.Info { return w.fn.Pkg.Info }

// setState weak-updates an object's taint (facts only accumulate, so
// re-walking is monotone).
func (w *taintWalker) setState(obj types.Object, t taintVal) {
	if obj == nil || t.zero() {
		return
	}
	merged := w.state[obj].merge(t)
	if merged != w.state[obj] {
		w.state[obj] = merged
		w.iterating = true
	}
}

// recordReturn folds taint into the function's result summary.
func (w *taintWalker) recordReturn(t taintVal) {
	merged := w.sum.ret.merge(t)
	if merged != w.sum.ret {
		w.sum.ret = merged
		w.sumChanged = true
	}
}

// sinkReach handles taint arriving at a simulator-state sink: concrete
// taint is reported (in the reporting phase), parameter taint is
// recorded in the summary so callers report at their own sites.
func (w *taintWalker) sinkReach(t taintVal, sink string, pos token.Pos) {
	if t.src != "" && w.reporting {
		w.pass.Reportf(pos, "nondeterministic value derived from %s reaches simulator state (%s); derive it from the run seed or the virtual clock instead", t.src, sink)
	}
	if t.params != 0 && w.sum.paramSink|t.params != w.sum.paramSink {
		w.sum.paramSink |= t.params
		w.sumChanged = true
	}
}

// expr computes the taint of an expression, reporting sinks inside it.
func (w *taintWalker) expr(e ast.Expr) taintVal {
	if e == nil {
		return taintVal{}
	}
	info := w.info()
	switch e := e.(type) {
	case *ast.Ident:
		return w.state[info.ObjectOf(e)]
	case *ast.SelectorExpr:
		if root := rootObj(info, e); root != nil {
			return w.state[root]
		}
		return taintVal{}
	case *ast.CallExpr:
		return w.call(e)
	case *ast.BinaryExpr:
		return w.expr(e.X).merge(w.expr(e.Y))
	case *ast.UnaryExpr:
		return w.expr(e.X)
	case *ast.StarExpr:
		return w.expr(e.X)
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.IndexExpr:
		return w.expr(e.X).merge(w.expr(e.Index))
	case *ast.SliceExpr:
		return w.expr(e.X)
	case *ast.TypeAssertExpr:
		return w.expr(e.X)
	case *ast.CompositeLit:
		var t taintVal
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			t = t.merge(w.expr(v))
		}
		if typ := info.TypeOf(e); typ != nil && w.sinkType(typ) && !t.zero() {
			w.sinkReach(t, qualifiedName(derefNamed(typ))+" literal", e.Pos())
		}
		return t
	case *ast.FuncLit:
		// The closure's body is analysed as part of this function
		// (shared state, coarse but sound for accumulation); the
		// closure value itself carries no taint.
		w.stmts(e.Body.List)
		return taintVal{}
	}
	return taintVal{}
}

// sinkType reports whether the (possibly pointered) named type is
// declared in a simulator-state package.
func (w *taintWalker) sinkType(t types.Type) bool {
	named, ok := derefNamed(t).(*types.Named)
	return ok && sinkPkg(w.pass.Module, pkgPathOf(named.Obj()))
}

// derefNamed strips one pointer level for message rendering.
func derefNamed(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// call computes the taint of a call's results and checks its arguments
// against sinks.
func (w *taintWalker) call(call *ast.CallExpr) taintVal {
	info := w.info()
	if _, ok := isConversion(info, call); ok {
		var t taintVal
		for _, a := range call.Args {
			t = t.merge(w.expr(a))
		}
		return t
	}
	obj := calleeObj(info, call)

	// Concrete nondeterminism sources.
	if name, ok := isPackageFunc(obj, "time"); ok && wallClockFuncs[name] {
		return taintVal{src: "time." + name}
	}
	if name, ok := isPackageFunc(obj, "math/rand"); ok && !randConstructors[name] {
		return taintVal{src: "math/rand." + name}
	}
	if name, ok := isPackageFunc(obj, "math/rand/v2"); ok && !randConstructors[name] {
		return taintVal{src: "math/rand/v2." + name}
	}

	sinkCallee := obj != nil && sinkPkg(w.pass.Module, pkgPathOf(obj))
	callee := w.pass.Prog.NodeOf(obj)
	calleeDesc := ""
	if obj != nil {
		calleeDesc = obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			calleeDesc = funcQualified(fn)
		}
	}

	var out taintVal
	var calleeSum *taintSummary
	if callee != nil {
		calleeSum = w.summaries[callee]
		if calleeSum.ret.src != "" {
			out.src = viaChain(calleeSum.ret.src, callee.Obj.Name())
		}
	}
	for i, arg := range call.Args {
		at := w.expr(arg)
		if at.zero() {
			continue
		}
		bit := uint64(0)
		if i < 64 {
			bit = 1 << i
		}
		if calleeSum != nil {
			if calleeSum.ret.params&bit != 0 {
				out = out.merge(at)
			}
			if calleeSum.paramSink&bit != 0 {
				w.sinkReach(at, "argument to "+calleeDesc+", which forwards it", arg.Pos())
				continue
			}
		}
		if sinkCallee {
			w.sinkReach(at, "argument to "+calleeDesc, arg.Pos())
			continue
		}
		if callee == nil {
			// Unknown (stdlib) callee: results conservatively derive
			// from every argument — fmt.Sprintf(t) stays tainted.
			out = out.merge(at)
		}
	}
	// A method's result may derive from its receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isFunc := info.Uses[sel.Sel].(*types.Func); isFunc {
			out = out.merge(w.expr(sel.X))
		}
	}
	return out
}

// assign applies taint t to an assignment target, checking writes into
// simulator-state structs.
func (w *taintWalker) assign(lhs ast.Expr, t taintVal) {
	info := w.info()
	if !t.zero() {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if bt := info.TypeOf(l.X); bt != nil && w.sinkType(bt) {
				w.sinkReach(t, "field "+l.Sel.Name+" of "+qualifiedName(derefNamed(bt)), lhs.Pos())
			}
		case *ast.IndexExpr:
			if bt := info.TypeOf(l); bt != nil && w.sinkType(bt) {
				w.sinkReach(t, "element of "+qualifiedName(derefNamed(bt)), lhs.Pos())
			}
		}
	}
	w.setState(rootObj(info, lhs), t)
}

func (w *taintWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *taintWalker) stmt(s ast.Stmt) {
	info := w.info()
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				t := w.expr(s.Rhs[i])
				if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
					t = t.merge(w.expr(s.Lhs[i])) // op-assign reads the target too
				}
				w.assign(s.Lhs[i], t)
			}
			return
		}
		// Tuple assignment: every target derives from the one RHS.
		t := w.expr(s.Rhs[0])
		for _, lhs := range s.Lhs {
			w.assign(lhs, t)
		}
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			// Bare return with named results.
			if res := w.fn.Decl.Type.Results; res != nil {
				for _, field := range res.List {
					for _, name := range field.Names {
						w.recordReturn(w.state[info.ObjectOf(name)])
					}
				}
			}
			return
		}
		for _, r := range s.Results {
			w.recordReturn(w.expr(r))
		}
	case *ast.RangeStmt:
		w.expr(s.X)
		if rangesOverMap(info, s) && rangeEscapes(s.Body) {
			src := taintVal{src: "map iteration order"}
			if id, ok := s.Key.(*ast.Ident); ok {
				w.setState(info.ObjectOf(id), src)
			}
			if id, ok := s.Value.(*ast.Ident); ok {
				w.setState(info.ObjectOf(id), src)
			}
		} else {
			// Order-insensitive loops still propagate value taint.
			t := w.expr(s.X)
			if id, ok := s.Value.(*ast.Ident); ok {
				w.setState(info.ObjectOf(id), t)
			}
			if id, ok := s.Key.(*ast.Ident); ok {
				w.setState(info.ObjectOf(id), t)
			}
		}
		w.stmts(s.Body.List)
	case *ast.SelectStmt:
		// Which ready case a select takes is scheduler-dependent; with
		// more than one case (default included) the values received
		// and the branch taken vary between runs.
		racy := len(s.Body.List) >= 2
		for _, clause := range s.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if comm.Comm != nil {
				w.stmt(comm.Comm)
				if racy {
					if a, ok := comm.Comm.(*ast.AssignStmt); ok {
						for _, lhs := range a.Lhs {
							w.assign(lhs, taintVal{src: "select arrival order"})
						}
					}
				}
			}
			w.stmts(comm.Body)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.stmts(s.Body.List)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Tag)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.assign(name, w.expr(vs.Values[i]))
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// rangeEscapes reports whether the loop body can exit early (break or
// return), making *which* entries were visited — not just the set —
// observable, so the iteration order leaks into values bound by the
// range clause.
func rangeEscapes(body *ast.BlockStmt) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			escapes = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				escapes = true
			}
		}
		return !escapes
	})
	return escapes
}
