package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the base of the hot-path analyzer hotalloc (DESIGN.md
// §12): hotness inference over the interprocedural call graph, and the
// body walk hotalloc uses to tell per-call from per-iteration from
// guarded code.
//
// A heap allocation that is harmless in setup code costs
// host time when it sits on a path executed once per simulated memory
// reference or per row. Which code that is cannot be derived from
// profiles here — the lint suite runs offline — so hotness is declared
// and then inferred: a function annotated
//
//	//perf:hot <why>
//
// in its doc comment is a hot root, and every function statically
// reachable from a root through the call graph is hot too, because a
// per-access caller makes every callee per-access. Interface dispatch
// and function values have no call-graph edges (the PR 3 soundness
// caveat), so kernels invoked through exec.Kernel carry their own
// //perf:hot annotations.

// hotDirective marks a hot root in a function's doc comment. Text
// after the marker is the reason, for humans; hotalloc only needs the
// marker.
const hotDirective = "//perf:hot"

// hotInfo records how a function became hot.
type hotInfo struct {
	// root is the annotated function this one was reached from (itself,
	// for annotated functions).
	root *FuncNode
	// depth is the call-chain distance from the root, 0 for roots.
	depth int
}

// describe renders the provenance for diagnostics: "hot" for roots,
// "hot (reached from Machine.Access)" for propagated functions.
func (h hotInfo) describe() string {
	if h.depth == 0 {
		return "hot"
	}
	return "hot (reached from " + hotFuncName(h.root) + ")"
}

// isHotRoot reports whether the declaration carries a //perf:hot
// marker in its doc comment.
func isHotRoot(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := c.Text
		if text == hotDirective || strings.HasPrefix(text, hotDirective+" ") {
			return true
		}
	}
	return false
}

// hotness computes the hot set of the program. Propagation is a
// breadth-first sweep from the annotated roots in deterministic Funcs
// order, so provenance (which root, at what depth) is stable run to
// run.
func (prog *Program) hotness() map[*FuncNode]hotInfo {
	hot := make(map[*FuncNode]hotInfo)
	var frontier []*FuncNode
	for _, fn := range prog.Funcs {
		if isHotRoot(fn.Decl) {
			hot[fn] = hotInfo{root: fn, depth: 0}
			frontier = append(frontier, fn)
		}
	}
	for len(frontier) > 0 {
		var next []*FuncNode
		for _, fn := range frontier {
			info := hot[fn]
			for _, call := range fn.Calls {
				if _, seen := hot[call.Callee]; seen {
					continue
				}
				hot[call.Callee] = hotInfo{root: info.root, depth: info.depth + 1}
				next = append(next, call.Callee)
			}
		}
		frontier = next
	}
	return hot
}

// forEachHotFunc visits every hot function that belongs to the
// analyzed package set, in deterministic program order — hotalloc's
// reporting loop.
func forEachHotFunc(p *Pass, visit func(fn *FuncNode, info hotInfo)) {
	hot := p.Prog.hotness()
	for _, fn := range p.Prog.Funcs {
		if info, ok := hot[fn]; ok && p.analyzed(fn) {
			visit(fn, info)
		}
	}
}

// hotWalker drives a structural walk of one hot function's body,
// tracking, for every visited node, whether it sits inside a loop and
// whether the path from the function (or enclosing loop) entry crosses
// a conditional. hotalloc uses the two flags to separate
// "executes once per call" from "executes once per iteration" and to
// skip guarded cold branches (error paths, rare fallbacks) that live
// inside hot code.
type hotWalker struct {
	// visit receives each expression-bearing node with its context.
	visit func(n ast.Node, inLoop, conditional bool)
}

// walkBody traverses the statements of a function body.
func (w *hotWalker) walkBody(body *ast.BlockStmt) {
	w.stmts(body.List, false, false)
}

func (w *hotWalker) stmts(list []ast.Stmt, inLoop, cond bool) {
	for _, s := range list {
		w.stmt(s, inLoop, cond)
	}
}

// stmt dispatches one statement. Entering a loop sets inLoop and
// clears the conditional flag (the loop body is the new straight-line
// context: it runs on every iteration); entering an if/switch/select
// arm sets conditional.
func (w *hotWalker) stmt(s ast.Stmt, inLoop, cond bool) {
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, inLoop, cond)
		}
		if s.Cond != nil {
			w.expr(s.Cond, true, false)
		}
		if s.Post != nil {
			w.stmt(s.Post, true, false)
		}
		w.stmts(s.Body.List, true, false)
	case *ast.RangeStmt:
		w.expr(s.X, inLoop, cond)
		w.stmts(s.Body.List, true, false)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, inLoop, cond)
		}
		w.expr(s.Cond, inLoop, cond)
		w.stmts(s.Body.List, inLoop, true)
		if s.Else != nil {
			w.stmt(s.Else, inLoop, true)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, inLoop, cond)
		}
		if s.Tag != nil {
			w.expr(s.Tag, inLoop, cond)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, inLoop, cond)
				}
				w.stmts(cc.Body, inLoop, true)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, inLoop, cond)
		}
		w.stmt(s.Assign, inLoop, cond)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, inLoop, true)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, inLoop, true)
				}
				w.stmts(cc.Body, inLoop, true)
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, inLoop, cond)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, inLoop, cond)
	case *ast.DeferStmt:
		w.expr(s.Call, inLoop, cond)
	case *ast.GoStmt:
		w.expr(s.Call, inLoop, cond)
	case *ast.AssignStmt:
		w.visit(s, inLoop, cond)
		for _, e := range s.Lhs {
			w.expr(e, inLoop, cond)
		}
		for _, e := range s.Rhs {
			w.expr(e, inLoop, cond)
		}
	case *ast.ExprStmt:
		w.expr(s.X, inLoop, cond)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, inLoop, cond)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, inLoop, cond)
	case *ast.SendStmt:
		w.expr(s.Chan, inLoop, cond)
		w.expr(s.Value, inLoop, cond)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, inLoop, cond)
					}
				}
			}
		}
	}
}

// expr walks one expression tree. A function literal is a new
// deferred context: code inside it does not run where it appears, so
// its body is walked as conditional (it may never run here) and out of
// the enclosing loop context.
func (w *hotWalker) expr(e ast.Expr, inLoop, cond bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.visit(n, inLoop, cond)
			w.stmts(n.Body.List, false, true)
			return false
		case *ast.CallExpr, *ast.CompositeLit, *ast.BinaryExpr, *ast.UnaryExpr:
			w.visit(n, inLoop, cond)
		}
		return true
	})
}

// hotFuncName formats a function for messages: "Machine.Access" or
// "helper".
func hotFuncName(fn *FuncNode) string {
	name := fn.Obj.Name()
	if recv := fn.Obj.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := derefNamed(recv.Type()).(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return name
}

// derefNamed strips one pointer level from a receiver type.
func derefNamed(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// reportHot is the shared reporting shim: every perf diagnostic names
// the function and its hotness provenance the same way.
func reportHot(p *Pass, fn *FuncNode, info hotInfo, pos token.Pos, format string, args ...any) {
	prefix := hotFuncName(fn) + " is " + info.describe() + ": "
	p.Reportf(pos, prefix+format, args...)
}
