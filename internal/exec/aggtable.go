package exec

import (
	"fmt"

	"cachepart/internal/memory"
)

// aggSlot is one hash-table slot: a group key and its aggregate.
// With padding it occupies 16 simulated bytes, so four slots share a
// cache line.
type aggSlot struct {
	key  uint32
	used bool
	val  int64
}

const slotBytes = 16

// AggTable is the open-addressing hash table grouped aggregation uses
// for thread-local pre-aggregation and for the global merge result
// (Section II). Its simulated footprint — capacity × 16 B — is what
// makes aggregation cache-sensitive when it is comparable to the LLC.
type AggTable struct {
	slots  []aggSlot
	region memory.Region
	space  *memory.Space
	name   string
	count  int
	grows  int
}

// aggLoadFactor keeps probes short; capacity = groups / 0.7, which for
// 10^5 groups across 22 workers lands near the paper's "hash table
// occupies all of the LLC".
const aggLoadFactor = 0.7

// AggCapacityFor reports the slot count allocated for an expected
// group count.
func AggCapacityFor(expectedGroups int) int {
	if expectedGroups < 4 {
		expectedGroups = 4
	}
	c := int(float64(expectedGroups)/aggLoadFactor) + 1
	return (c + 3) &^ 3 // whole cache lines
}

// NewAggTable allocates a table pre-sized for the expected group count.
func NewAggTable(space *memory.Space, name string, expectedGroups int) *AggTable {
	c := AggCapacityFor(expectedGroups)
	return &AggTable{
		slots:  make([]aggSlot, c),
		region: space.Alloc(name, uint64(c)*slotBytes),
		space:  space,
		name:   name,
	}
}

// Len reports the number of groups stored.
func (t *AggTable) Len() int { return t.count }

// Cap reports the slot capacity.
func (t *AggTable) Cap() int { return len(t.slots) }

// Bytes reports the simulated footprint.
func (t *AggTable) Bytes() uint64 { return uint64(len(t.slots)) * slotBytes }

// Region exposes the simulated allocation.
func (t *AggTable) Region() memory.Region { return t.region }

// Grows reports how many times the table resized, a diagnostic for
// mis-sized expectations.
func (t *AggTable) Grows() int { return t.grows }

// slotAddr is the address of slot i.
func (t *AggTable) slotAddr(i int) memory.Addr {
	return t.region.Addr(uint64(i) * slotBytes)
}

// hash spreads group keys with a Fibonacci multiplier.
func hash(key uint32) uint32 {
	return key * 2654435761
}

// AggKind selects the fold applied per group.
type AggKind int

// Supported aggregate folds: MAX for the paper's Query 2, SUM for the
// TPC-H pipelines' wide aggregation.
const (
	AggMax AggKind = iota
	AggSum
)

// UpdateMax folds val into the MAX aggregate of the group key,
// reporting every cache line the probe sequence touches. A write is
// reported only when the slot changes (insert or new maximum), which
// keeps read-mostly steady state clean.
func (t *AggTable) UpdateMax(ctx *Ctx, key uint32, val int64) {
	t.Update(ctx, AggMax, key, val)
}

// UpdateSum folds val into a SUM aggregate (always dirties the line).
func (t *AggTable) UpdateSum(ctx *Ctx, key uint32, val int64) {
	t.Update(ctx, AggSum, key, val)
}

// Update folds val into the group's aggregate under the given kind.
func (t *AggTable) Update(ctx *Ctx, kind AggKind, key uint32, val int64) {
	t.update(ctx, key, val, kind)
}

func (t *AggTable) update(ctx *Ctx, key uint32, val int64, kind AggKind) {
	if t.count*10 >= len(t.slots)*9 {
		t.grow(ctx)
	}
	capacity := uint32(len(t.slots))
	i := hash(key) % capacity
	line := uint64(i) / 4
	ctx.Read(t.slotAddr(int(i)))
	for {
		s := &t.slots[i]
		switch {
		case !s.used:
			s.used, s.key, s.val = true, key, val
			t.count++
			ctx.Write(t.slotAddr(int(i)))
			return
		case s.key == key:
			switch {
			case kind == AggSum:
				s.val += val
				ctx.Write(t.slotAddr(int(i)))
			case kind == AggMax && val > s.val:
				s.val = val
				ctx.Write(t.slotAddr(int(i)))
			}
			return
		}
		i = (i + 1) % capacity
		if nl := uint64(i) / 4; nl != line {
			line = nl
			ctx.Read(t.slotAddr(int(i)))
		}
	}
}

// Get returns the aggregate of a key, for result verification.
func (t *AggTable) Get(key uint32) (int64, bool) {
	capacity := uint32(len(t.slots))
	i := hash(key) % capacity
	for probes := uint32(0); probes < capacity; probes++ {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
		i = (i + 1) % capacity
	}
	return 0, false
}

// Each calls fn for every stored group.
func (t *AggTable) Each(fn func(key uint32, val int64)) {
	for i := range t.slots {
		if t.slots[i].used {
			fn(t.slots[i].key, t.slots[i].val)
		}
	}
}

// grow doubles the table when the load factor is exceeded (the
// expected-group sizing normally prevents this). The rehash reports
// sequential reads of the old table and writes into the new one.
func (t *AggTable) grow(ctx *Ctx) {
	old := t.slots
	oldRegion := t.region
	t.grows++
	newCap := len(old) * 2
	// An amortized doubling rehash, O(log n) occurrences; expected-group
	// sizing normally prevents it, so the allocations here and in the
	// region's name stay out of the alloc budgets' steady state.
	t.slots = make([]aggSlot, newCap)
	t.region = t.space.Alloc(fmt.Sprintf("%s.g%d", t.name, t.grows), uint64(newCap)*slotBytes)
	t.count = 0
	for i := range old {
		if !old[i].used {
			continue
		}
		if ctx != nil && i%4 == 0 {
			ctx.Read(oldRegion.Addr(uint64(i) * slotBytes))
		}
		t.reinsert(ctx, old[i].key, old[i].val)
	}
}

// reinsert places a key during rehash without growth checks.
func (t *AggTable) reinsert(ctx *Ctx, key uint32, val int64) {
	capacity := uint32(len(t.slots))
	i := hash(key) % capacity
	for {
		s := &t.slots[i]
		if !s.used {
			s.used, s.key, s.val = true, key, val
			t.count++
			if ctx != nil {
				ctx.Write(t.slotAddr(int(i)))
			}
			return
		}
		i = (i + 1) % capacity
	}
}

// Clear empties the table for the next execution without releasing the
// allocation (the engine reuses worker-local tables across runs).
func (t *AggTable) Clear() {
	clear(t.slots)
	t.count = 0
}
