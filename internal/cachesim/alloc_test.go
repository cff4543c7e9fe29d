package cachesim

import (
	"math/rand"
	"testing"
)

// These tests pin the perf tier's alloc-budget contract (DESIGN.md
// §12): the per-access paths allocate nothing in steady state. A
// regression fails here loudly instead of surfacing as benchmark
// drift.

func TestAccessZeroAllocs(t *testing.T) {
	m, err := New(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := batchPattern(rand.New(rand.NewSource(1)), 512)
	for i := range ops {
		m.Access(0, ops[i].Addr, ops[i].Write)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		op := &ops[i%len(ops)]
		m.Access(0, op.Addr, op.Write)
		i++
	})
	if allocs != 0 {
		t.Errorf("Machine.Access allocates %.1f per op in steady state, want 0", allocs)
	}
}

func TestAccessBatchZeroAllocs(t *testing.T) {
	m, err := New(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := batchPattern(rand.New(rand.NewSource(2)), 512)
	m.AccessBatch(0, ops)
	allocs := testing.AllocsPerRun(20, func() {
		m.AccessBatch(0, ops)
	})
	if allocs != 0 {
		t.Errorf("Machine.AccessBatch allocates %.1f per batch in steady state, want 0", allocs)
	}
}
