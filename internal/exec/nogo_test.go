package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSimulatorStartsNoGoroutines holds DESIGN §5 (3) by structure: the
// packages listed in noGo, which hold the simulator's run, contain no
// go statement. The ban covers only those packages, not every package
// that can reach a Ctx or a Machine. The module starts two helpers.
// PackedVector.StartCountInRange lives in internal/column, which
// imports only memory and so cannot reach either. workload's
// EncodeUniformColumns can, but its helper touches only a copy of the
// generator's source and words of the job's PackedVectors that the
// caller does not write, and it finishes before any System runs. Nor do the noGo packages
// import "sync": one serial loop drives each System, so a lock inside
// the simulator would guard nothing. (sync/atomic is a different path;
// exec's bit vector keeps it.)
//
// No simulator package imports "time" either, column and the
// tick-carrying packages included: simulated time is a tick count, so
// a time.Duration in tick arithmetic or a wall-clock read has no
// legitimate way in. Host timing belongs to main packages, the only
// place //lint:allow nondet is honoured.
func TestSimulatorStartsNoGoroutines(t *testing.T) {
	noGo := []string{"exec", "engine", "cachesim", "serve", "adapt", "harness", "memory", "resctrl", "fault"}
	noTime := append([]string{"column", "cat", "core", "workload", "workload/s4", "workload/tpch"}, noGo...)
	for _, pkg := range noTime {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no files (%v)", pkg, err)
		}
		banGo := slices.Contains(noGo, pkg)
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
				switch {
				case imp.Path.Value == `"time"`:
					t.Errorf("%s: imports time; simulated time is ticks, and host timing belongs to a main package", fset.Position(imp.Pos()))
				case banGo && imp.Path.Value == `"sync"`:
					t.Errorf("%s: imports sync; a System is driven by one loop and needs no lock", fset.Position(imp.Pos()))
				}
			}
			if !banGo {
				continue
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
