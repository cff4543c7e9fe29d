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
// memory, resctrl and fault hold the module's three mutexes; with no
// goroutine of their own either, no lock runs concurrently with the
// loop, so none can be held across a channel or taken in two orders.
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
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement; start helpers from internal/column", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
