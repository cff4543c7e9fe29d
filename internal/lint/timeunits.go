package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TimeUnits is a unit-inference pass over the module's two time
// domains. The simulator advances a virtual clock counted in ticks and
// cycles (cachesim.Machine.Now/Ticks, *Ticks fields and variables);
// the host's wall clock appears as time.Time/time.Duration values.
// The two use the same underlying integer types, so the compiler
// happily adds a time.Duration into a virtual-time epoch counter —
// silently corrupting every derived curve. This analyzer assigns each
// expression a domain and flags cross-domain arithmetic, comparisons,
// assignments, conversions, and argument passing.
//
// Domains are inferred from types (time.Duration/time.Time are
// wall-clock), from names (integer-typed identifiers containing
// "tick"/"cycle", or named like now/minNow, are cycle-domain; the same
// applies to function results), from the cycle functions listed in
// cycleFunc, and
// interprocedurally from per-function summaries: a parameter added
// into a cycle-domain expression inside the callee demands
// cycle-domain arguments from every caller. Dividing two values of the
// same domain yields a dimensionless ratio — the sanctioned conversion
// boundary (d / time.Millisecond is a count, not a duration).
var TimeUnits = &Analyzer{
	Name: "timeunits",
	Doc:  "no arithmetic, assignment, or argument passing mixing the virtual cycle domain with the wall-clock domain",
	Run:  runTimeUnits,
}

// cycleFunc reports whether the qualified function name ("pkgpath.Name"
// or "pkgpath.Recv.Name") is one whose integer results live in the
// cycle domain regardless of its name; the names are relative to the
// module path.
func cycleFunc(module, name string) bool {
	switch strings.TrimPrefix(name, module) {
	case "/internal/cachesim.Machine.Now",
		"/internal/cachesim.Machine.MaxNow",
		"/internal/cachesim.Machine.Ticks",
		"/internal/engine.StreamResult.Percentile":
		return true
	}
	return false
}

// unitDom is a small domain lattice encoded as a bitset so summary
// merges are monotone ORs. A value carrying both domCycle and domWall
// is the reported conflict.
type unitDom uint8

const (
	domCycle unitDom = 1 << iota // virtual-time ticks/cycles
	domWall                      // time.Duration / time.Time
	domNone                      // dimensionless ratio of two domained values
)

func (d unitDom) hasCycle() bool { return d&domCycle != 0 }
func (d unitDom) hasWall() bool  { return d&domWall != 0 }

// conflicting reports whether combining the two domains mixes cycle
// and wall-clock values.
func conflicting(a, b unitDom) bool {
	return (a.hasCycle() && b.hasWall()) || (a.hasWall() && b.hasCycle())
}

func (d unitDom) String() string {
	switch {
	case d.hasCycle() && !d.hasWall():
		return "cycle-domain"
	case d.hasWall() && !d.hasCycle():
		return "wall-clock-domain"
	default:
		return "mixed-domain"
	}
}

// unitSummary is one function's interprocedural unit record.
type unitSummary struct {
	// params holds the domain demanded of each parameter by the
	// function body (ORed across uses).
	params []unitDom
	// results holds the domain of each result.
	results []unitDom
}

func runTimeUnits(p *Pass) {
	summaries := make(map[*FuncNode]*unitSummary, len(p.Prog.Funcs))
	for _, fn := range p.Prog.Funcs {
		sig := fn.Obj.Type().(*types.Signature)
		s := &unitSummary{
			params:  make([]unitDom, sig.Params().Len()),
			results: make([]unitDom, sig.Results().Len()),
		}
		// Seed result domains from declared hints so even bodies the
		// inference cannot see through export their contract.
		for i := range s.results {
			s.results[i] = declaredDomain(sig.Results().At(i).Type(), fn.Obj.Name()) |
				declaredDomain(sig.Results().At(i).Type(), sig.Results().At(i).Name())
		}
		if cycleFunc(p.Module, funcQualified(fn.Obj)) && len(s.results) > 0 {
			s.results[0] |= domCycle
		}
		summaries[fn] = s
	}
	p.Prog.fixpoint(func(fn *FuncNode) bool {
		w := &unitWalker{pass: p, summaries: summaries, fn: fn, sum: summaries[fn]}
		return w.walk()
	})
	for _, fn := range p.Prog.Funcs {
		if !p.analyzed(fn) {
			continue
		}
		w := &unitWalker{pass: p, summaries: summaries, fn: fn, sum: summaries[fn], reporting: true}
		w.walk()
		// A parameter demanded in both domains is itself a finding.
		sig := fn.Obj.Type().(*types.Signature)
		for i, d := range w.sum.params {
			if d.hasCycle() && d.hasWall() {
				w.pass.Reportf(sig.Params().At(i).Pos(), "parameter %q of %s is used in both the cycle and wall-clock domains", sig.Params().At(i).Name(), fn.Obj.Name())
			}
		}
	}
}

// cycleName reports whether an identifier names a virtual-time
// quantity: it contains "tick" or "cycle", or is now/…Now (the
// machine's per-core clock accessors and their locals).
func cycleName(name string) bool {
	lower := strings.ToLower(name)
	if strings.Contains(lower, "tick") || strings.Contains(lower, "cycle") {
		return true
	}
	return name == "now" || strings.HasSuffix(name, "Now")
}

// typeDomain classifies a type: time.Duration and time.Time are
// wall-clock; a named type whose name is cycle-ish is cycle-domain.
func typeDomain(t types.Type) unitDom {
	if t == nil {
		return 0
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0
	}
	obj := named.Obj()
	if pkgPathOf(obj) == "time" && (obj.Name() == "Duration" || obj.Name() == "Time") {
		return domWall
	}
	if cycleName(obj.Name()) && isNumeric(named.Underlying()) {
		return domCycle
	}
	return 0
}

// declaredDomain classifies a declaration site from its type and name;
// name hints apply only to numeric types, so a string called
// "tickLabel" stays unclassified.
func declaredDomain(t types.Type, name string) unitDom {
	if d := typeDomain(t); d != 0 {
		return d
	}
	if t != nil && isNumeric(t.Underlying()) && cycleName(name) {
		return domCycle
	}
	return 0
}

func isNumeric(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// unitWalker carries one function's walk state.
type unitWalker struct {
	pass      *Pass
	summaries map[*FuncNode]*unitSummary
	fn        *FuncNode
	sum       *unitSummary
	reporting bool

	state      map[types.Object]unitDom // domains learned at := sites
	sumChanged bool
	iterating  bool
}

func (w *unitWalker) walk() bool {
	w.state = make(map[types.Object]unitDom)
	for pass := 0; pass < fixpointCap; pass++ {
		w.iterating = false
		w.stmts(w.fn.Decl.Body.List)
		if !w.iterating {
			break
		}
	}
	return w.sumChanged
}

func (w *unitWalker) info() *types.Info { return w.fn.Pkg.Info }

func (w *unitWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.reporting {
		w.pass.Reportf(pos, format, args...)
	}
}

// demand records that the expression — when it roots at one of this
// function's parameters through conversions and parentheses — is used
// in the given domain, feeding the interprocedural summary.
func (w *unitWalker) demand(e ast.Expr, d unitDom) {
	if d == 0 || d == domNone {
		return
	}
	i := w.paramRoot(e)
	if i < 0 || i >= len(w.sum.params) {
		return
	}
	if w.sum.params[i]|d != w.sum.params[i] {
		w.sum.params[i] |= d
		w.sumChanged = true
		w.iterating = true
	}
}

// paramRoot strips conversions, parens, and unary ops down to an
// identifier and returns its parameter index, or -1.
func (w *unitWalker) paramRoot(e ast.Expr) int {
	info := w.info()
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil {
				return -1
			}
			return paramIndexOf(w.fn.Obj.Type().(*types.Signature), obj)
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			if _, ok := isConversion(info, x); ok && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return -1
		default:
			return -1
		}
	}
}

// domainOf computes an expression's domain.
func (w *unitWalker) domainOf(e ast.Expr) unitDom {
	if e == nil {
		return 0
	}
	info := w.info()
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.domainOf(e.X)
	case *ast.UnaryExpr:
		return w.domainOf(e.X)
	case *ast.StarExpr:
		return w.domainOf(e.X)
	case *ast.Ident:
		return w.identDomain(info.ObjectOf(e))
	case *ast.SelectorExpr:
		return w.identDomain(info.ObjectOf(e.Sel))
	case *ast.IndexExpr:
		return w.domainOf(e.X)
	case *ast.SliceExpr:
		return w.domainOf(e.X)
	case *ast.CallExpr:
		return w.callDomain(e)
	case *ast.BinaryExpr:
		return w.binaryDomain(e)
	}
	return typeDomain(info.TypeOf(e))
}

// identDomain classifies a declared object: learned state, then type,
// then name hint, then (for parameters) the interprocedural demand.
func (w *unitWalker) identDomain(obj types.Object) unitDom {
	if obj == nil {
		return 0
	}
	d := w.state[obj] | declaredDomain(obj.Type(), obj.Name())
	if i := paramIndexOf(w.fn.Obj.Type().(*types.Signature), obj); i >= 0 && i < len(w.sum.params) {
		d |= w.sum.params[i]
	}
	return d
}

// callDomain classifies a call's value and checks argument domains
// against the callee's demands.
func (w *unitWalker) callDomain(call *ast.CallExpr) unitDom {
	info := w.info()
	if target, ok := isConversion(info, call); ok && len(call.Args) == 1 {
		operand := w.domainOf(call.Args[0])
		td := typeDomain(target)
		switch {
		case td.hasWall() && operand.hasCycle():
			w.reportf(call.Pos(), "conversion of a cycle-domain value to %s crosses into the wall-clock domain; divide by a tick unit at the boundary instead", types.TypeString(target, nil))
			return domWall
		case td.hasCycle() && operand.hasWall():
			w.reportf(call.Pos(), "conversion of a wall-clock-domain value to cycle-domain %s; virtual time must come from the machine's clock", types.TypeString(target, nil))
			return domCycle
		case td != 0:
			return td
		default:
			// A plain numeric conversion preserves the operand's domain:
			// int64(d) is still wall-clock time.
			return operand
		}
	}

	obj := calleeObj(info, call)
	var out unitDom
	var calleeSum *unitSummary
	if fn, ok := obj.(*types.Func); ok {
		if cycleFunc(w.pass.Module, funcQualified(fn)) {
			out |= domCycle
		}
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() == 1 {
			out |= declaredDomain(sig.Results().At(0).Type(), fn.Name())
		}
		if node := w.pass.Prog.NodeOf(obj); node != nil {
			calleeSum = w.summaries[node]
			if len(calleeSum.results) == 1 {
				out |= calleeSum.results[0]
			}
		}
		// Check arguments against the callee's parameter domains.
		for i, arg := range call.Args {
			if i >= sig.Params().Len() {
				break
			}
			want := declaredDomain(sig.Params().At(i).Type(), sig.Params().At(i).Name())
			if calleeSum != nil && i < len(calleeSum.params) {
				want |= calleeSum.params[i]
			}
			got := w.domainOf(arg)
			if conflicting(want, got) {
				w.reportf(arg.Pos(), "%s argument passed to %s parameter %q of %s", got, want, sig.Params().At(i).Name(), funcQualified(fn))
			} else {
				w.demand(arg, want)
			}
		}
	} else {
		for _, arg := range call.Args {
			w.domainOf(arg)
		}
	}
	if out == 0 {
		out = typeDomain(info.TypeOf(call))
	}
	return out
}

// binaryDomain combines operand domains, reporting cross-domain mixes
// and cancelling same-domain divisions into dimensionless ratios.
func (w *unitWalker) binaryDomain(e *ast.BinaryExpr) unitDom {
	l, r := w.domainOf(e.X), w.domainOf(e.Y)
	switch e.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		if conflicting(l, r) {
			w.reportf(e.OpPos, "cross-domain %q mixes a %s value with a %s value; convert explicitly at a domain boundary", e.Op.String(), l, r)
			return 0
		}
		// One side with a known domain demands it of the other.
		w.demand(e.Y, l)
		w.demand(e.X, r)
	default:
		return 0
	}
	if e.Op == token.QUO && l == r && (l == domCycle || l == domWall) {
		// ticks/ticks or d/time.Millisecond: a dimensionless count —
		// the sanctioned boundary between the domains.
		return domNone
	}
	switch e.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return 0
	}
	d := l | r
	d &^= domNone
	return d
}

func (w *unitWalker) setState(obj types.Object, d unitDom) {
	if obj == nil || d == 0 {
		return
	}
	if w.state[obj]|d != w.state[obj] {
		w.state[obj] |= d
		w.iterating = true
	}
}

// checkAssign reports a cross-domain store and learns local domains.
func (w *unitWalker) checkAssign(lhs, rhs ast.Expr, define bool) {
	ld, rd := w.domainOf(lhs), w.domainOf(rhs)
	if conflicting(ld, rd) {
		w.reportf(lhs.Pos(), "%s %s assigned a %s value; convert explicitly at a domain boundary", ld, types.ExprString(lhs), rd)
		return
	}
	w.demand(rhs, ld)
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && define {
		w.setState(w.info().ObjectOf(id), rd)
	}
}

func (w *unitWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *unitWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			for _, r := range s.Rhs {
				w.domainOf(r)
			}
			return
		}
		for i := range s.Lhs {
			w.checkAssign(s.Lhs[i], s.Rhs[i], s.Tok == token.DEFINE)
		}
	case *ast.ReturnStmt:
		for i, r := range s.Results {
			rd := w.domainOf(r)
			if i >= len(w.sum.results) {
				break
			}
			if conflicting(w.sum.results[i], rd) {
				w.reportf(r.Pos(), "%s return value from a function whose result is %s", rd, w.sum.results[i])
				continue
			}
			if rd != 0 && rd != domNone && w.sum.results[i]|rd != w.sum.results[i] {
				w.sum.results[i] |= rd
				w.sumChanged = true
			}
		}
	case *ast.ExprStmt:
		w.domainOf(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.domainOf(s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.domainOf(s.Cond)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		w.domainOf(s.X)
		w.stmts(s.Body.List)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.domainOf(s.Tag)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm)
				}
				w.stmts(cc.Body)
			}
		}
	case *ast.SendStmt:
		w.domainOf(s.Value)
	case *ast.GoStmt:
		w.domainOf(s.Call)
	case *ast.DeferStmt:
		w.domainOf(s.Call)
	case *ast.IncDecStmt:
		w.domainOf(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.checkAssign(name, vs.Values[i], true)
						}
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}
