package cachesim

import (
	"math"
	"math/rand"
	"testing"

	"cachepart/internal/cat"
	"cachepart/internal/memory"
)

// TestProbeMatchesPeekThenFillMasked drives twin caches with the same
// random fills, hits and invalidations under random masks: one rules
// out presence with peek and fills with fillMasked (two set scans), the
// other uses probe and place (one). Their contents must never differ.
func TestProbeMatchesPeekThenFillMasked(t *testing.T) {
	g := Geometry{Size: 8 * 20 * memory.LineSize, Ways: 20}
	a, b := newCache(g), newCache(g)
	rng := rand.New(rand.NewSource(11))
	masks := []cat.WayMask{cat.FullMask(20), 0x3, 0xff000, 0x1, 0x80000, 0}
	for step := 0; step < 50_000; step++ {
		line := uint64(rng.Intn(8 * 64)) // 64 lines per set: constant conflict
		switch rng.Intn(8) {
		case 0:
			pa, da := a.invalidate(line)
			pb, db := b.invalidate(line)
			if pa != pb || da != db {
				t.Fatalf("step %d: invalidate(%d) disagrees", step, line)
			}
		case 1, 2:
			ea, eb := a.lookup(line), b.lookup(line)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: lookup(%d) disagrees", step, line)
			}
			if ea != nil && rng.Intn(2) == 0 {
				ea.setDirty()
				eb.setDirty()
			}
		default:
			mask, ready := masks[rng.Intn(len(masks))], int64(step)
			var va, vb entry
			if a.peek(line) == nil {
				va, _ = a.fillMasked(line, ready, mask)
			}
			if set, present, way := b.probe(line, mask); !present {
				vb, _ = b.place(set, way, line, ready)
			}
			if va != vb {
				t.Fatalf("step %d: fill of line %d under mask %v evicted %+v, probe+place evicted %+v", step, line, mask, va, vb)
			}
		}
		if a.stamp != b.stamp {
			t.Fatalf("step %d: stamps %d and %d", step, a.stamp, b.stamp)
		}
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, a.entries[i], b.entries[i])
		}
	}
}

// TestRenormaliseKeepsSetOrder: ranks replace stamps set by set, empty
// ways stay empty, and the counter restarts just above the ranks.
func TestRenormaliseKeepsSetOrder(t *testing.T) {
	c := newCache(Geometry{Size: 2 * 4 * memory.LineSize, Ways: 4})
	stamps := []uint32{math.MaxUint32, 7, 0, 1 << 31, 3, 2, 1, 9}
	for i, s := range stamps {
		if s != 0 {
			c.entries[i] = entry{tag: uint64(i) + 1, lru: s}
		}
	}
	c.stamp = math.MaxUint32
	c.renormaliseIfDue()
	want := []uint32{3, 1, 0, 2, 3, 2, 1, 4}
	for i, w := range want {
		if got := c.entries[i].lru; got != w {
			t.Errorf("entry %d: stamp %d, want rank %d", i, got, w)
		}
	}
	if c.stamp != 4 {
		t.Errorf("counter restarts at %d, want 4", c.stamp)
	}
}

// TestStampWrapIsInvisible runs one trace on two machines, one of which
// starts with every cache's stamp counter a few thousand stamps short
// of wrapping. Replacement must not notice: every access is served by
// the same level and the clocks and counters end equal. Before
// renormalisation the lines stamped after the wrap were the first
// evicted.
func TestStampWrapIsInvisible(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDepth = 4
	fresh, aged := newTestMachine(t, cfg), newTestMachine(t, cfg)
	aged.llc.stamp = math.MaxUint32 - 5000
	for c := range aged.l1 {
		aged.l1[c].stamp = math.MaxUint32 - 3000
		aged.l2[c].stamp = math.MaxUint32 - 1000
	}
	space := memory.NewSpace()
	data := space.Alloc("d", cfg.LLC.Size*3)
	lines := data.Size / memory.LineSize
	rng := rand.New(rand.NewSource(5))
	ops := make([]BatchOp, 16)
	for step := 0; step < 60_000; step++ {
		core := rng.Intn(cfg.Cores)
		switch {
		case step%7 == 0:
			// A batch of repeated touches and a short ascending run:
			// the inline L1 fast path and the prefetcher.
			start := uint64(rng.Int63n(int64(lines - 16)))
			for i := range ops {
				ops[i] = BatchOp{Addr: data.Addr((start + uint64(i/2)) * memory.LineSize), Write: i%5 == 0, Cycles: 1, Instrs: 1}
			}
			fresh.AccessBatch(core, ops)
			aged.AccessBatch(core, ops)
		default:
			// Mostly a hot eighth of the data, so that all three
			// levels both hit and evict.
			line := uint64(rng.Int63n(int64(lines)))
			if rng.Intn(4) != 0 {
				line %= lines / 8
			}
			a, write := data.Addr(line*memory.LineSize), rng.Intn(4) == 0
			if lf, la := fresh.Access(core, a, write), aged.Access(core, a, write); lf != la {
				t.Fatalf("step %d: core %d line %d served by %v, by %v on the machine that wrapped", step, core, line, lf, la)
			}
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		if fresh.Stats(c) != aged.Stats(c) || fresh.Now(c) != aged.Now(c) {
			t.Errorf("core %d: stats %+v at %d, %+v at %d on the machine that wrapped", c, fresh.Stats(c), fresh.Now(c), aged.Stats(c), aged.Now(c))
		}
	}
	for _, c := range append(append([]cache{aged.llc}, aged.l1...), aged.l2...) {
		if c.stamp > math.MaxUint32/2 {
			t.Errorf("a counter never wrapped (stamp %d): the trace is too short to test anything", c.stamp)
		}
	}
}

// TestPrefetchChoosesL2VictimAfterBackInvalidation sets up the one case
// where the prefetch path's single scan per level must look again: the
// LLC fill evicts a line that the prefetching core's own L2 holds in
// the very set the prefetched line goes to. The back-invalidation
// empties that way, and the prefetched line must take it rather than
// evict the set's least recently used line.
func TestPrefetchChoosesL2VictimAfterBackInvalidation(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	const core = 0
	llcSets, l2Sets := uint64(m.llc.sets), uint64(m.l2[core].sets)
	// Lines congruent modulo both set counts share an LLC set and an
	// L2 set.
	stride := llcSets * l2Sets
	line := func(i int) uint64 { return 1 + uint64(i)*stride }
	// LLC set: full, line(0) the oldest and held by this core.
	for i := 0; i < m.llc.ways; i++ {
		_, slot := m.llc.fillMasked(line(i), 0, cat.FullMask(m.llc.ways))
		slot.owners = 1 << core
		m.llcOccupancy[0]++
	}
	// L2 set: full, line(1) the oldest, line(0) the most recent.
	l2 := &m.l2[core]
	for _, i := range []int{1, 2, 3, 0} {
		l2.fill(line(i), 0)
	}
	pf := line(m.llc.ways)
	m.prefetch(core, pf)
	if l2.peek(line(0)) != nil {
		t.Fatal("the LLC victim is still in L2: the setup missed its case")
	}
	if l2.peek(pf) == nil {
		t.Fatal("prefetched line not in L2")
	}
	for i := 1; i <= 3; i++ {
		if l2.peek(line(i)) == nil {
			t.Errorf("line %d was evicted from L2 although the back-invalidation had left a way empty", i)
		}
	}
}
