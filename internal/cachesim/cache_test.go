package cachesim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cachepart/internal/cat"
	"cachepart/internal/memory"
)

// packed is the entry that holds the reference entry's line, ready
// tick, owners and dirty bit.
func (re refEntry) packed() entry {
	e := entry{tag: re.tag & tagLineMask, meta: uint64(re.ready)}
	e.setOwners(re.owners)
	if re.dirty() {
		e.setDirty()
	}
	return e
}

// twin drives a cache and the stamp reference (cache_ref_test.go) with
// the same operations and reports the first thing they disagree on.
type twin struct {
	c     cache
	r     refCache
	masks []cat.WayMask
}

func newTwin(g Geometry) *twin {
	return &twin{
		c: newCache(g),
		r: newRefCache(g),
		masks: []cat.WayMask{
			allWays, cat.FullMask(g.Ways), 0x3, 0x1, 0, 0xffffc, 0x5, 1 << uint(g.Ways-1),
		},
	}
}

// Operations of twin.apply.
const (
	opLookup = iota
	opPeek
	opFill
	opFillMasked
	opProbePlace
	opInvalidate
	opFlush
	opKinds
)

// apply runs one operation on both caches. The fills skip a line that
// is present, as every caller in machine.go does; mark dirties the
// line a lookup, peek or fill leaves in the cache.
func (tw *twin) apply(op int, line uint64, mask cat.WayMask, ready int64, mark bool) error {
	c, r := &tw.c, &tw.r
	sameSlot := func(what string, e *entry, re *refEntry) error {
		if (e == nil) != (re == nil) {
			return fmt.Errorf("%s(%d): hit %v, reference hit %v", what, line, e != nil, re != nil)
		}
		if e == nil {
			return nil
		}
		if *e != re.packed() {
			return fmt.Errorf("%s(%d): entry %+v, reference %+v", what, line, *e, *re)
		}
		if mark {
			e.setDirty()
			re.tag |= refDirtyBit
		}
		return nil
	}
	sameVictim := func(what string, v entry, rv refEntry) error {
		if v != rv.packed() {
			return fmt.Errorf("%s(%d) under mask %#x: evicted %+v, reference evicted %+v", what, line, uint32(mask), v, rv)
		}
		return nil
	}
	var err error
	switch op {
	case opLookup:
		err = sameSlot("lookup", c.lookup(line), r.lookup(line))
		r.renormaliseIfDue()
	case opPeek:
		err = sameSlot("peek", c.peek(line), r.peek(line))
	case opFill, opFillMasked, opProbePlace:
		if r.peek(line) != nil {
			if c.peek(line) == nil {
				err = fmt.Errorf("line %d is missing, the reference holds it", line)
			}
			break
		}
		var v entry
		var e *entry
		var rv refEntry
		var re *refEntry
		switch op {
		case opFill:
			v, e = c.fill(line, ready)
			rv, re = r.fill(line, ready)
			err = sameVictim("fill", v, rv)
		case opFillMasked:
			v, e = c.fillMasked(line, ready, mask)
			rv, re = r.fillMasked(line, ready, mask)
			err = sameVictim("fillMasked", v, rv)
		default:
			set, present, way := c.probe(line, mask)
			rset, rpresent, rway := r.probe(line, mask)
			if present || rpresent || way != rway {
				return fmt.Errorf("probe(%d) under mask %#x: present %v way %d, reference present %v way %d", line, uint32(mask), present, way, rpresent, rway)
			}
			v, e = c.place(set, way, line, ready)
			rv, re = r.place(rset, rway, line, ready)
			err = sameVictim("probe+place", v, rv)
		}
		if err == nil {
			err = sameSlot("filled slot", e, re)
		}
	case opInvalidate:
		p, d := c.invalidate(line)
		rp, rd := r.invalidate(line)
		if p != rp || d != rd {
			err = fmt.Errorf("invalidate(%d): present %v dirty %v, reference present %v dirty %v", line, p, d, rp, rd)
		}
	case opFlush:
		c.flush()
		r.flush()
		for set := 0; set < c.sets && err == nil; set++ {
			err = checkRanks(c, set)
		}
		return err
	}
	if err != nil {
		return err
	}
	return checkRanks(c, c.setIndex(line))
}

// sameTags compares every way of the two caches.
func (tw *twin) sameTags() error {
	for i, e := range tw.c.entries {
		if re := tw.r.entries[i]; e != re.packed() {
			return fmt.Errorf("set %d way %d holds %+v, reference %+v", i/tw.c.ways, i%tw.c.ways, e, re)
		}
	}
	return nil
}

// checkRanks verifies the rank bytes of one set: the v valid ways hold
// a permutation of 0..v-1, empty ways rankEmpty, padding rankPad; and
// every valid way's fingerprint byte is its tag's.
func checkRanks(c *cache, set int) error {
	var seen [maxWays]bool
	valid := 0
	for i := 0; i < c.words*lanes; i++ {
		rank := uint8(c.ranks[set*c.words+i/lanes] >> (uint(i%lanes) * 8))
		switch {
		case i >= c.ways:
			if rank != rankPad {
				return fmt.Errorf("set %d: padding byte %d is %#x", set, i, rank)
			}
		case !c.entries[set*c.ways+i].valid():
			if rank != rankEmpty {
				return fmt.Errorf("set %d: empty way %d has rank %#x", set, i, rank)
			}
		default:
			valid++
			if int(rank) >= c.ways || seen[rank] {
				return fmt.Errorf("set %d: way %d has rank %d, out of range or taken", set, i, rank)
			}
			seen[rank] = true
			fp := uint8(c.fps[set*c.words+i/lanes] >> (uint(i%lanes) * 8))
			if want := uint8(fingerprint(c.entries[set*c.ways+i].tag & tagLineMask)); fp != want {
				return fmt.Errorf("set %d: way %d has fingerprint %#x, its tag's is %#x", set, i, fp, want)
			}
		}
	}
	for rank := 0; rank < valid; rank++ {
		if !seen[rank] {
			return fmt.Errorf("set %d: %d valid lines, none has rank %d", set, valid, rank)
		}
	}
	return nil
}

// TestCacheMatchesStampReference is the differential test of the word-
// at-a-time set representation: random operations under every kind of
// mask, on one-, three- and four-word sets, must give the stamp
// implementation's hits, victims, dirty bits and final contents.
func TestCacheMatchesStampReference(t *testing.T) {
	steps := 400_000
	if testing.Short() {
		steps = 40_000
	}
	for _, g := range []struct{ sets, ways int }{{5, 3}, {8, 8}, {11, 20}, {4, 32}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			tw := newTwin(Geometry{Size: uint64(g.sets * g.ways * memory.LineSize), Ways: g.ways})
			// The oracle's counter wraps on the way, so its
			// renormalisation is part of what is compared.
			tw.r.stamp = math.MaxUint32 - uint32(steps/4)
			rng := rand.New(rand.NewSource(int64(g.ways)))
			lines := g.sets * g.ways * 3 // three lines per way: constant conflict
			for step := 0; step < steps; step++ {
				op := rng.Intn(opKinds + 8)
				switch {
				case op == opFlush && rng.Intn(500) != 0:
					op = opLookup
				case op >= opKinds:
					op = opFill + op%3 // fills are half of all operations
				}
				mask := tw.masks[rng.Intn(len(tw.masks))]
				if err := tw.apply(op, uint64(rng.Intn(lines)), mask, int64(step), rng.Intn(3) == 0); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if err := tw.sameTags(); err != nil {
				t.Fatal(err)
			}
			if tw.r.stamp > math.MaxUint32/2 {
				t.Errorf("the reference's counter never wrapped (stamp %d)", tw.r.stamp)
			}
		})
	}
}

// FuzzCacheOps decodes a geometry and an operation string and runs it
// against the stamp reference: two bytes per operation, the first
// holding kind, mask and dirty mark, the second the line.
func FuzzCacheOps(f *testing.F) {
	for _, ways := range []uint8{3, 8, 20, 32} {
		rng := rand.New(rand.NewSource(int64(ways)))
		ops := make([]byte, 1024)
		rng.Read(ops)
		f.Add(ways-1, ways, ops)
	}
	f.Add(uint8(7), uint8(0), []byte{opFill, 1, opFill, 9, opInvalidate, 1, opFill | 2<<3, 17, opFlush, 0, opProbePlace | 4<<3, 1})
	f.Fuzz(func(t *testing.T, ways, sets uint8, ops []byte) {
		g := Geometry{Ways: int(ways)%maxWays + 1}
		g.Size = uint64((int(sets)%3 + 1) * g.Ways * memory.LineSize)
		tw := newTwin(g)
		for i := 0; i+1 < len(ops); i += 2 {
			kind, mask, mark := int(ops[i]&7), tw.masks[ops[i]>>3&7], ops[i]&0x40 != 0
			if kind >= opKinds {
				kind = opLookup
			}
			if err := tw.apply(kind, uint64(ops[i+1]), mask, int64(i), mark); err != nil {
				t.Fatalf("%d ways, op %d: %v", g.Ways, i/2, err)
			}
		}
		if err := tw.sameTags(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFindIgnoresPaddingLanes: the fingerprint bytes past a set's last
// way are zero, and so is the fingerprint of some tags. A search for
// such a line must not take the padding for candidates — they would
// index entries beyond the set.
func TestFindIgnoresPaddingLanes(t *testing.T) {
	for _, ways := range []int{3, 20} {
		c := newCache(Geometry{Size: uint64(ways * memory.LineSize), Ways: ways})
		found := 0
		for line := uint64(0); found < 4; line++ {
			if fingerprint(line+1) != 0 {
				continue
			}
			found++
			if c.peek(line) != nil {
				t.Fatalf("%d ways: empty cache holds line %d", ways, line)
			}
			c.fill(line, 0)
			if c.peek(line) == nil {
				t.Fatalf("%d ways: line %d is missing after its fill", ways, line)
			}
		}
	}
}

// TestNewCachePanicsOnUnvalidatedGeometry: more ways than a rank byte
// can order below rankPad must not build a cache that mis-ranks.
func TestNewCachePanicsOnUnvalidatedGeometry(t *testing.T) {
	for _, g := range []Geometry{
		{Size: 64 * memory.LineSize, Ways: maxWays + 1},
		{Size: 64 * memory.LineSize, Ways: 0},
		{Size: memory.LineSize, Ways: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newCache(%+v) did not panic", g)
				}
			}()
			newCache(g)
		}()
	}
}

// TestProbeMatchesPeekThenFillMasked drives twin caches with the same
// random fills, hits and invalidations under random masks: one rules
// out presence with peek and fills with fillMasked (two searches), the
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
	}
	if !slices.Equal(a.entries, b.entries) || !slices.Equal(a.ranks, b.ranks) || !slices.Equal(a.fps, b.fps) {
		t.Fatal("the two caches ended with different contents")
	}
}

// TestPrefetchChoosesL2VictimAfterBackInvalidation sets up the one case
// where the prefetch path's single search per level must look again:
// the LLC fill evicts a line that the prefetching core's own L2 holds
// in the very set the prefetched line goes to. The back-invalidation
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
		slot.setOwners(1 << core)
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
