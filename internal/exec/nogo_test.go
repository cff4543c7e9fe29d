package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulatorStartsNoGoroutines holds DESIGN §5 (3) by structure: the
// packages that can reach a Ctx or a Machine contain no go statement.
// The one helper the simulator starts (PackedVector.StartCountInRange)
// lives in internal/column, which imports only memory and so cannot.
// Nor do they import "sync": one serial loop drives each System, so a
// lock inside the simulator would guard nothing. (sync/atomic is a
// different path; exec's bit vector keeps it.)
func TestSimulatorStartsNoGoroutines(t *testing.T) {
	for _, pkg := range []string{"exec", "engine", "cachesim", "serve", "adapt", "harness", "memory", "resctrl", "fault"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no files (%v)", pkg, err)
		}
		fset := token.NewFileSet()
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"sync"` {
					t.Errorf("%s: imports sync; a System is driven by one loop and needs no lock", fset.Position(imp.Pos()))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement; start helpers from internal/column", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
