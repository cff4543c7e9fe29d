package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file builds the interprocedural infrastructure hotalloc runs
// on: a static call graph over the analyzed packages plus every
// module-internal package they transitively import, and its strongly
// connected components in bottom-up (callee-before-caller) order, so
// per-function alloc summaries can be computed to fixpoint one SCC at
// a time, as in compositional analyzers like Infer.
//
// Resolution is purely static: an edge exists when a call expression's
// callee resolves (through go/types) to a function or method declared
// with a body somewhere in the program. Interface dispatch, function
// values, and method values therefore have no out-edges — a documented
// soundness caveat (DESIGN.md §9). Calls inside function literals are
// attributed to the enclosing declaration.

// FuncNode is one declared function or method of the program.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the statically resolved calls of the body (function
	// literals included), in source order.
	Calls []Call

	// Tarjan scratch state.
	index, lowlink int
	onStack        bool
}

// Call is one resolved call site.
type Call struct {
	Site   *ast.CallExpr
	Callee *FuncNode
}

// Program is the interprocedural view hotalloc runs on.
type Program struct {
	// Funcs lists every declared function with a body, in (package
	// path, file, position) order — a deterministic iteration order.
	Funcs []*FuncNode
	// SCCs partitions Funcs into strongly connected components of the
	// call graph, bottom-up: each component appears after every
	// component it calls into.
	SCCs [][]*FuncNode

	byObj map[*types.Func]*FuncNode
}

// NodeOf returns the program node of a function object, nil when the
// object is not a declared module function with a body.
func (prog *Program) NodeOf(obj types.Object) *FuncNode {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return prog.byObj[fn]
}

// buildProgram assembles the call graph over pkgs and every
// module-internal package they transitively import. Dependencies are
// already memoized in the loader from type-checking, so no new parsing
// happens here.
func buildProgram(loader *Loader, pkgs []*Package) *Program {
	closure := make(map[string]*Package)
	var queue []*Package
	add := func(p *Package) {
		if p != nil && closure[p.Path] == nil {
			closure[p.Path] = p
			queue = append(queue, p)
		}
	}
	for _, p := range pkgs {
		add(p)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == loader.Module || strings.HasPrefix(path, loader.Module+"/") {
					add(loader.pkgs[path])
				}
			}
		}
	}

	prog := &Program{byObj: make(map[*types.Func]*FuncNode)}
	paths := make([]string, 0, len(closure))
	for path := range closure {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	// Pass 1: nodes, over the closure sorted by import path. Files come
	// from parseDir in directory order, and declarations are visited in
	// source order, so Funcs is deterministic without further sorting.
	for _, path := range paths {
		pkg := closure[path]
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				prog.byObj[obj] = node
				prog.Funcs = append(prog.Funcs, node)
			}
		}
	}

	// Pass 2: edges.
	for _, node := range prog.Funcs {
		info := node.Pkg.Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := prog.NodeOf(calleeObj(info, call)); callee != nil {
				node.Calls = append(node.Calls, Call{Site: call, Callee: callee})
			}
			return true
		})
	}

	prog.computeSCCs()
	return prog
}

// computeSCCs runs Tarjan's algorithm over the call graph. Tarjan
// emits components in reverse topological order of the condensation —
// sinks (pure callees) first — which is exactly the bottom-up order
// the summary fixpoint wants.
func (prog *Program) computeSCCs() {
	for _, n := range prog.Funcs {
		n.index = 0
	}
	var (
		counter int
		stack   []*FuncNode
		visit   func(n *FuncNode)
	)
	visit = func(n *FuncNode) {
		counter++
		n.index, n.lowlink = counter, counter
		stack = append(stack, n)
		n.onStack = true
		for _, c := range n.Calls {
			m := c.Callee
			if m.index == 0 {
				visit(m)
				n.lowlink = min(n.lowlink, m.lowlink)
			} else if m.onStack {
				n.lowlink = min(n.lowlink, m.index)
			}
		}
		if n.lowlink == n.index {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			// Members in discovery order reversed; restore source order
			// within the component for deterministic iteration.
			sort.Slice(scc, func(i, j int) bool { return scc[i].index < scc[j].index })
			prog.SCCs = append(prog.SCCs, scc)
		}
	}
	for _, n := range prog.Funcs {
		if n.index == 0 {
			visit(n)
		}
	}
}
