package cachesim

import (
	"math"

	"cachepart/internal/cat"
)

// entry is one cache line slot, packed to 24 bytes so a set scan stays
// within as few cache lines of the *host* as possible. The tag word
// carries the line number plus the two small per-line attributes:
//
//	bits  0..55  line number + 1; 0 means invalid
//	bits 56..62  CLOS of the filling core (LLC only, CMT attribution)
//	bit  63      dirty
//
// 56 bits of line number cover 2^62 bytes of address space, far beyond
// what the bump allocator can hand out.
type entry struct {
	tag   uint64
	ready int64 // tick at which the fill completes (prefetch in flight)
	lru   uint32
	// owners is used only in the shared LLC: a bitmask of cores that
	// pulled the line into their private caches since the fill, so an
	// inclusive back-invalidation only has to visit those cores.
	owners uint32
}

const (
	tagLineBits  = 56
	tagLineMask  = uint64(1)<<tagLineBits - 1
	tagCLOSShift = tagLineBits
	tagCLOSMask  = uint64(0x7f) << tagCLOSShift
	tagDirtyBit  = uint64(1) << 63

	// MaxCLOS is the widest class-of-service id the packed entry tag
	// can attribute occupancy to.
	MaxCLOS = 128
)

func (e entry) valid() bool  { return e.tag&tagLineMask != 0 }
func (e entry) line() uint64 { return e.tag&tagLineMask - 1 }
func (e entry) dirty() bool  { return e.tag&tagDirtyBit != 0 }
func (e entry) clos() uint8  { return uint8(e.tag >> tagCLOSShift & 0x7f) }

func (e *entry) setDirty()       { e.tag |= tagDirtyBit }
func (e *entry) setCLOS(c uint8) { e.tag = e.tag&^tagCLOSMask | uint64(c)<<tagCLOSShift }

// cache is one set-associative cache. It stores no data, only tags and
// replacement state; the caller interprets hits and misses.
type cache struct {
	sets    int
	ways    int
	mask    uint64 // sets-1 when sets is a power of two
	pow2    bool
	entries []entry // sets*ways, way-major within a set
	stamp   uint32
}

func newCache(g Geometry) cache {
	sets := g.Sets()
	return cache{
		sets:    sets,
		ways:    g.Ways,
		mask:    uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		entries: make([]entry, sets*g.Ways),
	}
}

// setIndex maps a line to its set. Private caches have power-of-two set
// counts, so the common path is a single AND; the shared LLC at some
// scales (e.g. 45056 sets) needs the modulo fallback.
func (c *cache) setIndex(line uint64) int {
	if c.pow2 {
		return int(line & c.mask)
	}
	return int(line % uint64(c.sets))
}

// lookup finds the line. On a hit it refreshes the LRU stamp and
// returns the entry. The tag convention stores line+1 so a zero entry
// is invalid; flag bits are masked off before comparing.
func (c *cache) lookup(line uint64) *entry {
	base := c.setIndex(line) * c.ways
	tag := line + 1
	set := c.entries[base : base+c.ways]
	for i := range set {
		if set[i].tag&tagLineMask == tag {
			c.stamp++
			set[i].lru = c.stamp
			return &set[i]
		}
	}
	return nil
}

// peek is lookup without touching replacement state.
func (c *cache) peek(line uint64) *entry {
	base := c.setIndex(line) * c.ways
	tag := line + 1
	set := c.entries[base : base+c.ways]
	for i := range set {
		if set[i].tag&tagLineMask == tag {
			return &set[i]
		}
	}
	return nil
}

// allWays is the mask of a fill no CAT class restricts.
const allWays = ^cat.WayMask(0)

// set returns the ways the line maps to.
func (c *cache) set(line uint64) []entry {
	base := c.setIndex(line) * c.ways
	return c.entries[base : base+c.ways]
}

// oldest returns the way a fill restricted to mask replaces: the first
// empty allowed way, else the least recently used allowed one, else
// (the mask allows none) -1. An empty way carries stamp 0, below every
// valid line's, so both cases are one minimum search; it runs over
// stamp<<8|way so that the loop carries one value and no branch on the
// stamps, whose order is unpredictable.
func oldest(set []entry, mask cat.WayMask) int {
	min := noWay
	for i := range set {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if k := uint64(set[i].lru)<<8 | uint64(i); k < min {
			min = k
		}
	}
	return wayOf(min)
}

const noWay = ^uint64(0)

func wayOf(key uint64) int {
	if key == noWay {
		return -1
	}
	return int(key & 0xff)
}

// probe is the one set scan of a fill that must first rule out that the
// line is already there (a prefetch): it reports whether the line is
// present, and otherwise the way fillMasked would replace, for place to
// fill. The choice holds until the set next changes.
func (c *cache) probe(line uint64, mask cat.WayMask) (set []entry, present bool, way int) {
	set = c.set(line)
	tag := line + 1
	min := noWay
	for i := range set {
		if set[i].tag&tagLineMask == tag {
			return set, true, i
		}
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if k := uint64(set[i].lru)<<8 | uint64(i); k < min {
			min = k
		}
	}
	way = wayOf(min)
	if way < 0 {
		way = oldest(set, allWays) // empty mask; see fillMasked
	}
	return set, false, way
}

// place fills a way of the set. It returns the evicted entry by value
// (invalid if the way was empty) so the caller can handle writebacks
// and inclusive invalidations.
func (c *cache) place(set []entry, way int, line uint64, ready int64) (victim entry, slot *entry) {
	victim = set[way]
	c.stamp++
	set[way] = entry{tag: line + 1, ready: ready, lru: c.stamp}
	c.renormaliseIfDue()
	return victim, &set[way]
}

// fill inserts the line, evicting the least recently used way.
func (c *cache) fill(line uint64, ready int64) (victim entry, slot *entry) {
	set := c.set(line)
	return c.place(set, oldest(set, allWays), line, ready)
}

// fillMasked inserts the line choosing the victim only among the ways
// allowed by the CAT capacity mask, which is how Cache Allocation
// Technology restricts fills. Bit i of the mask corresponds to way i.
func (c *cache) fillMasked(line uint64, ready int64, mask cat.WayMask) (victim entry, slot *entry) {
	set := c.set(line)
	way := oldest(set, mask)
	if way < 0 {
		// An empty mask cannot be programmed through cat.Registers;
		// fall back to unrestricted replacement defensively.
		way = oldest(set, allWays)
	}
	return c.place(set, way, line, ready)
}

// stampLimit is the last stamp the counter can hand out. Whoever takes
// a stamp — place, and the callers of lookup, which is too small to
// hold the call and stay inlinable — follows up with renormaliseIfDue.
const stampLimit = math.MaxUint32

func (c *cache) renormaliseIfDue() {
	if c.stamp == stampLimit {
		c.renormalise()
	}
}

// renormalise replaces every valid line's stamp by its rank within its
// set (1 is the least recently used) and restarts the counter above
// the ranks. Replacement only ever compares stamps within one set, so
// every later victim choice is the one the unbounded counter would
// have made; without this the counter wraps after 2^32 lookups and
// fills, and the freshest lines become the first evicted.
func (c *cache) renormalise() {
	var rank [maxWays]uint32
	for base := 0; base < len(c.entries); base += c.ways {
		set := c.entries[base : base+c.ways]
		for i := range set {
			rank[i] = 0
			if !set[i].valid() {
				continue
			}
			rank[i] = 1
			for j := range set {
				if set[j].valid() && set[j].lru < set[i].lru {
					rank[i]++
				}
			}
		}
		for i := range set {
			set[i].lru = rank[i]
		}
	}
	c.stamp = uint32(c.ways)
}

// invalidate drops the line if present, returning whether it was dirty.
func (c *cache) invalidate(line uint64) (present, dirty bool) {
	if e := c.peek(line); e != nil {
		dirty = e.dirty()
		*e = entry{}
		return true, dirty
	}
	return false, false
}

// flush invalidates every line.
func (c *cache) flush() {
	clear(c.entries)
	c.stamp = 0
}

// occupancy counts valid lines, optionally restricted to lines within
// [loLine, hiLine). Used by tests and diagnostics.
func (c *cache) occupancy(loLine, hiLine uint64) int {
	n := 0
	for i := range c.entries {
		if !c.entries[i].valid() {
			continue
		}
		line := c.entries[i].line()
		if line >= loLine && line < hiLine {
			n++
		}
	}
	return n
}
