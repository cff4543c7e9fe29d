package lint

import (
	"slices"
	"testing"
)

// TestCallGraphEdges pins the call graph's edge conventions: direct
// and deferred calls resolve, bound-method spawns resolve, and calls
// through function or method values do not (the documented soundness
// gap, DESIGN.md §9).
func TestCallGraphEdges(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.LoadDir("internal/lint/testdata/src/cgfix")
	if err != nil {
		t.Fatalf("loading fixture cgfix: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture does not type-check: %v", terr)
	}
	prog := buildProgram(loader, []*Package{pkg})
	calls := map[string][]string{}
	for _, fn := range prog.Funcs {
		if fn.Pkg != pkg {
			continue
		}
		var out []string
		for _, c := range fn.Calls {
			out = append(out, c.Callee.Obj.Name())
		}
		calls[fn.Obj.Name()] = out
	}
	cases := []struct {
		fn   string
		want []string
	}{
		{"DirectCall", []string{"target"}},
		{"MethodValue", nil}, // method value: no edge
		{"DeferredClosure", []string{"target"}},
		{"DeferredDirect", []string{"target"}},
		{"GoBoundMethod", []string{"run"}},
		{"GoFuncValue", nil}, // function value: no edge
	}
	for _, tc := range cases {
		got, ok := calls[tc.fn]
		if !ok {
			t.Errorf("%s: not in program", tc.fn)
			continue
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: edges %v, want %v", tc.fn, got, tc.want)
		}
	}
}
