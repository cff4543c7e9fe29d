package cachesim

import (
	"strings"
	"testing"
	"unsafe"

	"cachepart/internal/memory"
)

// TestEntryIs16Bytes: every simulated line is one entry, so a field
// added to it regrows every cache array of the hierarchy.
func TestEntryIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
}

// TestPlacePanicsOutsideEntryLimits: a line number or a ready tick that
// its field of the entry cannot hold must not be truncated into another
// line or an earlier tick. The largest values that fit round-trip.
func TestPlacePanicsOutsideEntryLimits(t *testing.T) {
	g := Geometry{Size: 8 * memory.LineSize, Ways: 8}
	for _, c := range []struct {
		line  uint64
		ready int64
		limit string
	}{
		{1<<32 - 1, 0, "256 GiB"},
		{0, 1 << 48, "2^48"},
		{0, -1, "2^48"},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), c.limit) {
					t.Errorf("fill(%#x, %d): panic %v, want one naming %s", c.line, c.ready, err, c.limit)
				}
			}()
			cache := newCache(g)
			cache.fill(c.line, c.ready)
		}()
	}
	cache := newCache(g)
	_, e := cache.fill(1<<32-2, 1<<48-1)
	e.setOwners(^uint32(0))
	e.setCLOS(MaxCLOS - 1)
	e.setDirty()
	if e.line() != 1<<32-2 || e.ready() != 1<<48-1 || e.owners() != ^uint32(0) || e.clos() != MaxCLOS-1 || !e.dirty() {
		t.Errorf("largest values did not round-trip: line %#x ready %#x owners %#x clos %d dirty %v",
			e.line(), e.ready(), e.owners(), e.clos(), e.dirty())
	}
	if cache.peek(1<<32-2) != e {
		t.Error("a line with every owner bit set is no longer found")
	}
}

// TestOwnerBitOfCore31 drives the highest owner bit, which is the top
// bit of the tag word: it must neither hide the line from another core
// nor escape the inclusive back-invalidation, and CMT occupancy must
// balance per CLOS.
func TestOwnerBitOfCore31(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 32
	m := newTestMachine(t, cfg)
	if err := m.CAT().Associate(31, 1); err != nil {
		t.Fatal(err)
	}
	space := memory.NewSpace()
	one := space.Alloc("one", memory.LineSize)
	line := one.Base.Line()

	if lvl := m.Access(31, one.Base, false); lvl != DRAM {
		t.Fatalf("first access by core 31 = %v, want DRAM", lvl)
	}
	e := m.llc.peek(line)
	if e == nil || e.tag>>63 != 1 || e.owners() != 1<<31 || e.line() != line {
		t.Fatalf("LLC entry %+v: want core 31's owner bit in tag bit 63 beside line %d", e, line)
	}
	if lvl := m.Access(0, one.Base, false); lvl != LLC {
		t.Fatalf("core 0 after core 31's fill = %v, want LLC", lvl)
	}
	if e.owners() != 1<<31|1 {
		t.Fatalf("owners %#x, want cores 0 and 31", e.owners())
	}
	if got := m.LLCOccupancyOfCLOS(1); got != memory.LineSize {
		t.Fatalf("CLOS 1 occupancy %d, want one line", got)
	}

	// Core 1 (CLOS 0) streams far more than the whole LLC.
	wash := space.Alloc("wash", cfg.LLC.Size*4)
	for off := uint64(0); off < wash.Size; off += memory.LineSize {
		m.Access(1, wash.Addr(off), false)
	}
	if m.llc.peek(line) != nil {
		t.Fatal("the wash did not evict the line from the LLC")
	}
	if m.l1[31].peek(line) != nil || m.l2[31].peek(line) != nil {
		t.Error("core 31 still holds the line privately after its LLC eviction")
	}
	if m.l1[0].peek(line) != nil || m.l2[0].peek(line) != nil {
		t.Error("core 0 still holds the line privately after its LLC eviction")
	}
	if got := m.LLCOccupancyOfCLOS(1); got != 0 {
		t.Errorf("CLOS 1 occupancy %d after its one line was evicted, want 0", got)
	}
	var total uint64
	for clos := 0; clos < cfg.NumCLOS; clos++ {
		total += m.LLCOccupancyOfCLOS(clos)
	}
	if valid := uint64(m.llc.occupancy(0, ^uint64(0))) * memory.LineSize; total != valid {
		t.Errorf("CMT occupancy %d, valid lines %d", total, valid)
	}
	if lvl := m.Access(31, one.Base, false); lvl != DRAM {
		t.Errorf("core 31 after the eviction = %v, want DRAM", lvl)
	}
}
