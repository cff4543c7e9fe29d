package lint

import (
	"go/ast"
	"go/types"
)

// hotmap flags integer-keyed map operations in hot functions. A Go map
// access on the per-simulated-access path costs a hash, a bucket walk,
// and unpredictable cache misses — the exact overhead this simulator
// exists to model, paid for real on every modeled access. With integer
// keys the map is usually standing in for a dense index (line numbers,
// core ids, group codes), where a preallocated slice or open-addressed
// table indexed directly is several times cheaper and allocation-free.
//
// String- and struct-keyed maps pass clean: no dense substitute
// exists, and none appear on this repository's hot paths.
var HotMap = &Analyzer{
	Name:      "hotmap",
	Doc:       "no integer-keyed map access or iteration in //perf:hot code; use a dense slice or open-addressed table",
	RunModule: runHotMap,
}

func runHotMap(p *ModulePass) {
	forEachHotFunc(p, func(fn *FuncNode, info hotInfo) {
		typesInfo := fn.Pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				if key, ok := intKeyedMap(typesInfo.TypeOf(n.X)); ok {
					reportHot(p, fn, info, n.Pos(),
						"map access keyed by %s hashes on every lookup; a dense slice or open-addressed table indexes directly", key)
				}
			case *ast.RangeStmt:
				if key, ok := intKeyedMap(typesInfo.TypeOf(n.X)); ok {
					reportHot(p, fn, info, n.Pos(),
						"map iteration keyed by %s walks hash buckets; a dense slice or open-addressed table scans linearly", key)
				}
			case *ast.CallExpr:
				builtin, ok := calleeObj(typesInfo, n).(*types.Builtin)
				if !ok || builtin.Name() != "delete" || len(n.Args) == 0 {
					return true
				}
				if key, ok := intKeyedMap(typesInfo.TypeOf(n.Args[0])); ok {
					reportHot(p, fn, info, n.Pos(),
						"map delete keyed by %s hashes on every call; a dense slice or open-addressed table clears in place", key)
				}
			}
			return true
		})
	})
}

// intKeyedMap reports whether t is a map with an integer key type,
// returning the key's name for the message.
func intKeyedMap(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return "", false
	}
	basic, ok := m.Key().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return "", false
	}
	return m.Key().String(), true
}
