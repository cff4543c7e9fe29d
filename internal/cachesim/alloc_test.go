package cachesim

import (
	"math/rand"
	"testing"

	"cachepart/internal/allocs"
	"cachepart/internal/cat"
	"cachepart/internal/memory"
)

// These tests pin the perf tier's alloc-budget contract (DESIGN.md
// §11): the per-access paths — demand hits and misses, an armed
// prefetch stream, fills under a narrow CAT mask — allocate nothing in
// steady state. A regression fails here loudly instead of surfacing as
// benchmark drift.

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
	access := func() {
		op := &ops[i%len(ops)]
		m.Access(0, op.Addr, op.Write)
		i++
	}
	allocs.Check(t, "Machine.Access per op", testing.AllocsPerRun(200, access), 0, access)
}

func TestAccessBatchZeroAllocs(t *testing.T) {
	m, err := New(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := batchPattern(rand.New(rand.NewSource(2)), 512)
	m.AccessBatch(0, ops)
	batch := func() { m.AccessBatch(0, ops) }
	allocs.Check(t, "Machine.AccessBatch per batch", testing.AllocsPerRun(20, batch), 0, batch)
}

// TestStreamZeroAllocs: an armed stream — prefetch, probe and place in
// LLC and L2, the LLC victim's back-invalidation — allocates nothing.
func TestStreamZeroAllocs(t *testing.T) {
	m, err := New(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, line := memory.Addr(memory.PageSize), 0
	next := func() {
		m.Access(0, base+memory.Addr(line)*memory.LineSize, false)
		line++
	}
	for line < 4*m.llc.sets*m.llc.ways { // until every LLC fill evicts
		next()
	}
	before := m.Stats(0)
	got := testing.AllocsPerRun(2000, next)
	if d := m.Stats(0).Sub(before); d.PrefetchIssued < 2000 || d.L2Hits < 2000 {
		t.Fatalf("the stream is not armed: %+v", d)
	}
	allocs.Check(t, "a streamed access", got, 0, next)
}

// TestMaskedFillZeroAllocs: demand misses filling the LLC under a
// two-way CLOS — the masked victim search — allocate nothing.
func TestMaskedFillZeroAllocs(t *testing.T) {
	m, err := New(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CAT().SetMask(1, cat.FullMask(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.CAT().Associate(0, 1); err != nil {
		t.Fatal(err)
	}
	base, i := memory.Addr(memory.PageSize), uint64(0)
	lines := uint64(8 * m.llc.sets * m.llc.ways)
	next := func() {
		m.Access(0, base+memory.Addr(i*40503%lines)*memory.LineSize, false)
		i++
	}
	for i < lines {
		next()
	}
	before := m.Stats(0)
	got := testing.AllocsPerRun(2000, next)
	if d := m.Stats(0).Sub(before); d.LLCMisses < 1900 {
		t.Fatalf("the accesses do not miss the LLC: %+v", d)
	}
	allocs.Check(t, "a masked LLC fill", got, 0, next)
}
