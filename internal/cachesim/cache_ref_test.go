package cachesim

import (
	"math"

	"cachepart/internal/cat"
)

// The stamp implementation of the cache, as it stood before the sets
// were examined a word at a time: every way carries the value of a
// per-cache counter at its last touch, a victim search is a minimum
// over the allowed ways' stamps, and the counter is renormalised
// before it can wrap. It is kept verbatim (types renamed) as the
// oracle of TestCacheMatchesStampReference and FuzzCacheOps, and
// appears nowhere else.

// refEntry is entry with the stamp.
type refEntry struct {
	tag    uint64
	ready  int64
	lru    uint32
	owners uint32
}

// refDirtyBit is the dirty flag of a refEntry's tag; the oracle keeps
// its own encoding (packed converts it to an entry).
const refDirtyBit = uint64(1) << 63

func (e refEntry) valid() bool { return e.tag&tagLineMask != 0 }
func (e refEntry) dirty() bool { return e.tag&refDirtyBit != 0 }

// refCache is one set-associative cache. It stores no data, only tags and
// replacement state; the caller interprets hits and misses.
type refCache struct {
	sets    int
	ways    int
	mask    uint64 // sets-1 when sets is a power of two
	pow2    bool
	entries []refEntry // sets*ways, way-major within a set
	stamp   uint32
}

func newRefCache(g Geometry) refCache {
	sets := g.Sets()
	return refCache{
		sets:    sets,
		ways:    g.Ways,
		mask:    uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		entries: make([]refEntry, sets*g.Ways),
	}
}

// setIndex maps a line to its set. Private caches have power-of-two set
// counts, so the common path is a single AND; the shared LLC at some
// scales (e.g. 45056 sets) needs the modulo fallback.
func (c *refCache) setIndex(line uint64) int {
	if c.pow2 {
		return int(line & c.mask)
	}
	return int(line % uint64(c.sets))
}

// lookup finds the line. On a hit it refreshes the LRU stamp and
// returns the entry. The tag convention stores line+1 so a zero entry
// is invalid; flag bits are masked off before comparing.
func (c *refCache) lookup(line uint64) *refEntry {
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
func (c *refCache) peek(line uint64) *refEntry {
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

// set returns the ways the line maps to.
func (c *refCache) set(line uint64) []refEntry {
	base := c.setIndex(line) * c.ways
	return c.entries[base : base+c.ways]
}

// oldest returns the way a fill restricted to mask replaces: the first
// empty allowed way, else the least recently used allowed one, else
// (the mask allows none) -1. An empty way carries stamp 0, below every
// valid line's, so both cases are one minimum search; it runs over
// stamp<<8|way so that the loop carries one value and no branch on the
// stamps, whose order is unpredictable.
func oldest(set []refEntry, mask cat.WayMask) int {
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
func (c *refCache) probe(line uint64, mask cat.WayMask) (set []refEntry, present bool, way int) {
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
func (c *refCache) place(set []refEntry, way int, line uint64, ready int64) (victim refEntry, slot *refEntry) {
	victim = set[way]
	c.stamp++
	set[way] = refEntry{tag: line + 1, ready: ready, lru: c.stamp}
	c.renormaliseIfDue()
	return victim, &set[way]
}

// fill inserts the line, evicting the least recently used way.
func (c *refCache) fill(line uint64, ready int64) (victim refEntry, slot *refEntry) {
	set := c.set(line)
	return c.place(set, oldest(set, allWays), line, ready)
}

// fillMasked inserts the line choosing the victim only among the ways
// allowed by the CAT capacity mask, which is how Cache Allocation
// Technology restricts fills. Bit i of the mask corresponds to way i.
func (c *refCache) fillMasked(line uint64, ready int64, mask cat.WayMask) (victim refEntry, slot *refEntry) {
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

func (c *refCache) renormaliseIfDue() {
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
func (c *refCache) renormalise() {
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
func (c *refCache) invalidate(line uint64) (present, dirty bool) {
	if e := c.peek(line); e != nil {
		dirty = e.dirty()
		*e = refEntry{}
		return true, dirty
	}
	return false, false
}

// flush invalidates every line.
func (c *refCache) flush() {
	clear(c.entries)
	c.stamp = 0
}
