package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Nondeterminism enforces the simulator's reproducibility contract:
// under a fixed seed, two runs must produce bit-for-bit identical
// results (the property the determinism smoke tests assert). Three
// sources of run-to-run variation are rejected:
//
//   - the global math/rand functions, which draw from a runtime-seeded
//     source — queries and loaders must thread a seeded *rand.Rand;
//   - wall-clock reads (time.Now, time.Since, time.Sleep, ...), which
//     couple results to host timing instead of the machine's virtual
//     clock;
//   - order-sensitive iteration over maps (including the maps.Keys /
//     maps.Values iterators), whose order changes between runs.
//
// Map loops are accepted when they are provably order-insensitive
// (pure accumulation such as x += v, counters, writes to distinct map
// keys, delete) or when they only collect values into a slice that the
// same file passes to a sort or slices routine before applying.
var Nondeterminism = &Analyzer{
	Name: "nondet",
	Doc:  "reject wall-clock reads, global math/rand and order-sensitive map iteration in simulation code",
	Run:  runNondeterminism,
}

// randConstructors are the math/rand entry points that build explicit,
// seedable generators; everything else draws from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// wallClockFuncs are the time functions that observe or depend on the
// host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

func runNondeterminism(p *Pass) {
	for _, pkg := range p.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			sorted := sortedCollectors(info, f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					obj := info.Uses[n.Sel]
					if name, ok := isPackageFunc(obj, "math/rand"); ok && !randConstructors[name] {
						p.Reportf(n.Pos(), "global math/rand.%s draws from a runtime-seeded source; thread a seeded *rand.Rand instead (cf. engine.RunOptions.Seed)", name)
					}
					if name, ok := isPackageFunc(obj, "math/rand/v2"); ok && !randConstructors[name] {
						p.Reportf(n.Pos(), "global math/rand/v2.%s draws from a runtime-seeded source; thread a seeded *rand.Rand instead", name)
					}
					if name, ok := isPackageFunc(obj, "time"); ok && wallClockFuncs[name] {
						p.Reportf(n.Pos(), "time.%s reads the wall clock; simulation state and reports must derive timing from the machine's virtual clock", name)
					}
				case *ast.RangeStmt:
					if !rangesOverMap(info, n) {
						return true
					}
					if obj := appendCollector(info, n.Body); obj != nil && sorted[obj] {
						return true // values collected, then sorted in this file
					}
					if orderInsensitiveStmts(info, n.Body.List) {
						return true
					}
					p.Reportf(n.Pos(), "map iteration order varies between runs and this loop is order-sensitive; iterate sorted keys or restrict the body to order-insensitive updates")
				}
				return true
			})
		}
	}
}

// rangesOverMap reports whether the range statement iterates a map,
// either directly or through the maps.Keys/Values/All iterators.
func rangesOverMap(info *types.Info, rng *ast.RangeStmt) bool {
	if t := info.TypeOf(rng.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return true
		}
	}
	if call, ok := ast.Unparen(rng.X).(*ast.CallExpr); ok {
		if name, ok := isPackageFunc(calleeObj(info, call), "maps"); ok {
			return name == "Keys" || name == "Values" || name == "All"
		}
	}
	return false
}

// sortedCollectors returns the objects that appear as arguments to a
// sort or slices call anywhere in the file — slices whose final order
// does not depend on how they were filled.
func sortedCollectors(info *types.Info, f *ast.File) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(info, call)
		if pkg := pkgPathOf(obj); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if o := info.ObjectOf(id); o != nil {
					out[o] = true
				}
			}
		}
		return true
	})
	return out
}

// appendCollector returns the object of x when every statement of the
// body (possibly behind if guards) is `x = append(x, ...)`; nil
// otherwise.
func appendCollector(info *types.Info, body *ast.BlockStmt) types.Object {
	var target types.Object
	var walk func(stmts []ast.Stmt) bool
	walk = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.IfStmt:
				if !walk(s.Body.List) {
					return false
				}
				if block, ok := s.Else.(*ast.BlockStmt); ok && !walk(block.List) {
					return false
				}
			case *ast.AssignStmt:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN {
					return false
				}
				id, ok := s.Lhs[0].(*ast.Ident)
				if !ok {
					return false
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return false
				}
				if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
					return false
				}
				first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok || first.Name != id.Name {
					return false
				}
				obj := info.ObjectOf(id)
				if obj == nil || (target != nil && target != obj) {
					return false
				}
				target = obj
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if !walk(body.List) {
		return nil
	}
	return target
}

// orderInsensitiveStmts reports whether executing the statements for
// the map's entries in any order yields the same final state:
// commutative accumulation, counters, writes to per-key map slots,
// and deletes qualify; anything else (appends, breaks, returns,
// channel ops, function calls) does not.
func orderInsensitiveStmts(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(info, s) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(info *types.Info, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if !callFree(info, rhs) {
				return false
			}
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// String concatenation is the one op-assign that does not
			// commute: s += k builds a different string per visit order.
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringExpr(info, s.Lhs[0]) {
				return false
			}
			return true
		case token.ASSIGN:
			// Plain assignment commutes only when each target is a
			// distinct element (an index expression) or discarded.
			for _, lhs := range s.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
				case *ast.Ident:
					if l.Name != "_" {
						return false
					}
				default:
					return false
				}
			}
			return true
		}
		return false
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && fn.Name == "delete"
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.IfStmt:
		if s.Init != nil || !callFree(info, s.Cond) {
			return false
		}
		if !orderInsensitiveStmts(info, s.Body.List) {
			return false
		}
		if block, ok := s.Else.(*ast.BlockStmt); ok {
			return orderInsensitiveStmts(info, block.List)
		}
		return s.Else == nil
	case *ast.BlockStmt:
		return orderInsensitiveStmts(info, s.List)
	}
	return false
}

// isStringExpr reports whether the expression has a string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pureBuiltins never observe iteration order or mutate state.
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true, "abs": true,
}

// callFree reports whether the expression contains no function calls
// other than pure builtins.
func callFree(info *types.Info, e ast.Expr) bool {
	free := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, ok := calleeObj(info, call).(*types.Builtin); ok && pureBuiltins[b.Name()] {
			return true
		}
		free = false
		return false
	})
	return free
}
