package cachesim

import (
	"fmt"
	"math/bits"

	"cachepart/internal/cat"
)

// entry is one cache line slot, two words and 16 bytes:
//
//	tag   bits  0..31  line number + 1; 0 means invalid
//	      bits 32..63  owners (LLC only): the cores that pulled the line
//	                   into their private caches since the fill
//	meta  bits  0..47  ready: the tick at which the fill completes
//	                   (a prefetch in flight)
//	      bits 48..54  CLOS of the filling core (LLC only, CMT attribution)
//	      bit  63      dirty
//
// Config.validate caps Cores at 32, one owner bit each. place panics
// on a line at or above 256 GiB and on a tick outside [0, 2^48), some
// 8,000 simulated seconds at 2.2 GHz.
type entry struct {
	tag  uint64
	meta uint64
}

const (
	tagLineBits   = 32
	tagLineMask   = uint64(1)<<tagLineBits - 1
	metaReadyBits = 48
	metaReadyMask = uint64(1)<<metaReadyBits - 1
	metaCLOSShift = metaReadyBits
	metaCLOSMask  = uint64(0x7f) << metaCLOSShift
	metaDirtyBit  = uint64(1) << 63

	// MaxCLOS is the widest class-of-service id the packed entry
	// can attribute occupancy to.
	MaxCLOS = 128
)

func (e entry) valid() bool    { return e.tag&tagLineMask != 0 }
func (e entry) line() uint64   { return e.tag&tagLineMask - 1 }
func (e entry) owners() uint32 { return uint32(e.tag >> tagLineBits) }
func (e entry) ready() int64   { return int64(e.meta & metaReadyMask) }
func (e entry) dirty() bool    { return e.meta&metaDirtyBit != 0 }
func (e entry) clos() uint8    { return uint8(e.meta >> metaCLOSShift & 0x7f) }

func (e *entry) addOwner(core int)  { e.tag |= 1 << (tagLineBits + uint(core)) }
func (e *entry) setOwners(o uint32) { e.tag = e.tag&tagLineMask | uint64(o)<<tagLineBits }
func (e *entry) setDirty()          { e.meta |= metaDirtyBit }
func (e *entry) setCLOS(c uint8)    { e.meta = e.meta&^metaCLOSMask | uint64(c)<<metaCLOSShift }

// A set is examined a word at a time, not a way at a time: beside its
// entries every set keeps one byte per way in each of two arrays,
// eight ways to a uint64, way i in byte i%8 of word i/8.
//
//	fps    a fingerprint of the way's tag. A search compares all eight
//	       bytes of a word with the wanted fingerprint at once and
//	       confirms the few candidates against the full tag, so an
//	       absent line is usually ruled out without reading an entry.
//	       The byte of an empty way is stale; its zero tag confirms
//	       nothing.
//	ranks  the way's position in exact LRU order: 0 is the most
//	       recently used of the set's v valid lines, v-1 the least;
//	       rankEmpty marks an empty way and rankPad the bytes past the
//	       last way. Valid ranks are always a permutation of 0..v-1,
//	       so they never outgrow a byte whatever the number of touches.
const (
	lanes = 8 // ways per word

	laneLo = 0x0101010101010101 // 1 in every byte: broadcasts a byte by multiplication
	laneHi = 0x8080808080808080 // the top bit of every byte

	rankEmpty = 0xff
	rankPad   = 0x7f // above every valid rank (Geometry.validate), top bit clear

	// fpMul spreads the tag over the top byte of the product. The
	// fingerprint is taken from the whole tag, not the bits above the
	// set index, so it does not depend on the set count.
	fpMul = 0x9e3779b97f4a7c15
)

// The widest set's ranks must stay below rankPad, or this overflows.
const _ = uint(rankPad - maxWays)

func fingerprint(tag uint64) uint64 { return tag * fpMul >> 56 }

// zeroLanes flags (top bit) the zero bytes of x. The lowest flag is
// exact; a byte holding 1 above a zero byte may be flagged too, which
// is why callers confirm.
func zeroLanes(x uint64) uint64 { return (x - laneLo) &^ x & laneHi }

// belowLanes flags the bytes of x whose low seven bits are below t,
// for t ≤ rankPad: with the top bit forced on no byte borrows from its
// neighbour, and the subtraction clears the bit exactly where x < t.
// rankEmpty and rankPad both read as 0x7f and are never below.
func belowLanes(x, t uint64) uint64 { return ^((x | laneHi) - t*laneLo) & laneHi }

// spread turns eight way-mask bits into the top bits of eight lanes.
var spread = func() (t [256]uint64) {
	for m := range t {
		for i := 0; i < lanes; i++ {
			if m>>i&1 != 0 {
				t[m] |= 0x80 << (lanes * i)
			}
		}
	}
	return t
}()

// cache is one set-associative cache. It stores no data, only tags and
// replacement state; the caller interprets hits and misses.
type cache struct {
	sets    int
	ways    int
	words   int    // uint64s per set in fps and ranks
	mask    uint64 // sets-1 when sets is a power of two
	pow2    bool
	tail    uint64  // laneHi restricted to the real ways of a set's last word
	entries []entry // sets*ways, way-major within a set
	fps     []uint64
	ranks   []uint64
}

// newCache builds an empty cache. The geometry must have passed
// Geometry.validate: a way count the rank bytes cannot order would
// mis-rank silently, so it panics instead.
func newCache(g Geometry) cache {
	if err := g.validate("cache"); err != nil {
		panic(fmt.Sprintf("cachesim: newCache on an unvalidated geometry: %v", err))
	}
	sets := g.Sets()
	words := (g.Ways + lanes - 1) / lanes
	c := cache{
		sets:    sets,
		ways:    g.Ways,
		words:   words,
		mask:    uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		tail:    laneHi >> (uint(words*lanes-g.Ways) * 8),
		entries: make([]entry, sets*g.Ways),
		fps:     make([]uint64, sets*words),
		ranks:   make([]uint64, sets*words),
	}
	c.flush()
	return c
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

// find returns the line's set and the way that holds it, or -1. The tag
// convention stores line+1 so a zero entry is invalid; owner bits are
// masked off before comparing.
func (c *cache) find(line uint64) (set, way int) {
	set = c.setIndex(line)
	tag := line + 1
	want := fingerprint(tag) * laneLo
	if c.words == 1 {
		// L1 and L2, four of the six searches a streamed line costs:
		// without the loop over words an L2 hit is a tenth cheaper.
		return set, c.match(set, 0, zeroLanes(c.fps[set]^want)&c.tail, tag)
	}
	fps := c.fps[set*c.words:][:c.words]
	last := len(fps) - 1
	for w, fp := range fps {
		hits := zeroLanes(fp ^ want)
		if w == last {
			hits &= c.tail
		}
		if way = c.match(set, w, hits, tag); way >= 0 {
			return set, way
		}
	}
	return set, -1
}

// match returns the first of the flagged ways of the set's word w whose
// entry holds the tag, or -1.
func (c *cache) match(set, w int, hits, tag uint64) int {
	for ; hits != 0; hits &= hits - 1 {
		way := w*lanes + bits.TrailingZeros64(hits)/8
		if c.entries[set*c.ways+way].tag&tagLineMask == tag {
			return way
		}
	}
	return -1
}

// touch makes the way the most recently used of its set: every line
// more recent than it ages by one and it takes rank 0. An empty way's
// threshold is rankEmpty&rankPad, above every valid rank, so touching
// it ages the whole set — which is what a fill needs.
func (c *cache) touch(set, way int) {
	if c.words == 1 { // as in find
		r, shift := c.ranks[set], uint(way)*8
		c.ranks[set] = (r + belowLanes(r, r>>shift&rankPad)>>7) &^ (0xff << shift)
		return
	}
	ranks := c.ranks[set*c.words:][:c.words]
	shift := uint(way%lanes) * 8
	t := ranks[way/lanes] >> shift & rankPad
	for w, r := range ranks {
		ranks[w] = r + belowLanes(r, t)>>7
	}
	ranks[way/lanes] &^= 0xff << shift
}

// lookup finds the line and, on a hit, makes it the most recently used.
func (c *cache) lookup(line uint64) *entry {
	set, way := c.find(line)
	if way < 0 {
		return nil
	}
	c.touch(set, way)
	return &c.entries[set*c.ways+way]
}

// peek is lookup without touching replacement state.
func (c *cache) peek(line uint64) *entry {
	set, way := c.find(line)
	if way < 0 {
		return nil
	}
	return &c.entries[set*c.ways+way]
}

// allWays is the mask of a fill no CAT class restricts.
const allWays = ^cat.WayMask(0)

// victimWay returns the way a fill restricted to mask replaces: the
// lowest empty allowed way, else the least recently used allowed one,
// else (the mask allows none) -1.
func (c *cache) victimWay(set int, mask cat.WayMask) int {
	ranks := c.ranks[set*c.words:][:c.words]
	full := cat.WayMask(1)<<uint(c.ways) - 1
	if mask&full == full {
		// The steady state of an unrestricted fill, so looked for
		// first: a line of rank ways-1 means that no way is empty, and
		// it is the least recent of them all.
		oldest := uint64(c.ways-1) * laneLo
		for w, r := range ranks {
			if hit := zeroLanes(r ^ oldest); hit != 0 {
				return w*lanes + bits.TrailingZeros64(hit)/8
			}
		}
	}
	for w, r := range ranks {
		if empty := r & spread[uint8(mask>>(uint(w)*lanes))]; empty != 0 {
			return w*lanes + bits.TrailingZeros64(empty)/8
		}
	}
	// Every allowed way is valid: the highest rank among them. A scan
	// confined to two ways looks at two bytes.
	way, top := -1, -1
	for m := uint32(mask & full); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if r := int(uint8(ranks[i/lanes] >> (uint(i%lanes) * 8))); r > top {
			way, top = i, r
		}
	}
	return way
}

// probe is the one search of a fill that must first rule out that the
// line is already there (a prefetch): it reports whether the line is
// present, and otherwise the way fillMasked would replace, for place to
// fill. The choice holds until the set next changes.
func (c *cache) probe(line uint64, mask cat.WayMask) (set int, present bool, way int) {
	set, way = c.find(line)
	if way >= 0 {
		return set, true, way
	}
	way = c.victimWay(set, mask)
	if way < 0 {
		way = c.victimWay(set, allWays) // empty mask; see fillMasked
	}
	return set, false, way
}

// place fills a way of the set. It returns the evicted entry by value
// (invalid if the way was empty) so the caller can handle writebacks
// and inclusive invalidations.
func (c *cache) place(set, way int, line uint64, ready int64) (victim entry, slot *entry) {
	tag := line + 1
	if tag>>tagLineBits|uint64(ready)>>metaReadyBits != 0 {
		panic(rangeError{line, uint64(ready)})
	}
	slot = &c.entries[set*c.ways+way]
	victim = *slot
	*slot = entry{tag: tag, meta: uint64(ready)}
	fp := &c.fps[set*c.words+way/lanes]
	shift := uint(way%lanes) * 8
	*fp = *fp&^(0xff<<shift) | fingerprint(tag)<<shift
	c.touch(set, way)
	return victim, slot
}

// rangeError is place's panic value: a line or a tick an entry cannot hold.
type rangeError struct{ line, ready uint64 }

func (e rangeError) Error() string {
	if e.line+1 > tagLineMask {
		return fmt.Sprintf("cachesim: line %#x starts at or above 256 GiB of simulated addresses, beyond what an entry holds", e.line)
	}
	return fmt.Sprintf("cachesim: ready tick %d is outside the [0, 2^48) an entry holds", int64(e.ready))
}

// fill inserts the line, evicting the least recently used way.
func (c *cache) fill(line uint64, ready int64) (victim entry, slot *entry) {
	set := c.setIndex(line)
	return c.place(set, c.victimWay(set, allWays), line, ready)
}

// fillMasked inserts the line choosing the victim only among the ways
// allowed by the CAT capacity mask, which is how Cache Allocation
// Technology restricts fills. Bit i of the mask corresponds to way i.
func (c *cache) fillMasked(line uint64, ready int64, mask cat.WayMask) (victim entry, slot *entry) {
	set := c.setIndex(line)
	way := c.victimWay(set, mask)
	if way < 0 {
		// An empty mask cannot be programmed through cat.Registers;
		// fall back to unrestricted replacement defensively.
		way = c.victimWay(set, allWays)
	}
	return c.place(set, way, line, ready)
}

// invalidate drops the line if present, returning whether it was dirty.
// The lines less recent than it move up one rank to close the gap.
func (c *cache) invalidate(line uint64) (present, dirty bool) {
	set, way := c.find(line)
	if way < 0 {
		return false, false
	}
	e := &c.entries[set*c.ways+way]
	dirty = e.dirty()
	*e = entry{}
	ranks := c.ranks[set*c.words:][:c.words]
	shift := uint(way%lanes) * 8
	t := ranks[way/lanes]>>shift&0xff + 1
	for w, r := range ranks {
		// Not below rank+1, but below rankPad: valid and less recent.
		ranks[w] = r - (belowLanes(r, rankPad)&^belowLanes(r, t))>>7
	}
	ranks[way/lanes] |= rankEmpty << shift
	return true, dirty
}

// flush invalidates every line.
func (c *cache) flush() {
	clear(c.entries)
	for w := range c.ranks {
		c.ranks[w] = rankEmpty * laneLo
	}
	// A set's last word: rankEmpty in the real ways, rankPad past them.
	real := uint(c.ways-(c.words-1)*lanes) * 8
	last := uint64(rankPad*laneLo) | (1<<real - 1)
	for w := c.words - 1; w < len(c.ranks); w += c.words {
		c.ranks[w] = last
	}
}

// clearReady marks every line's fill as arrived.
func (c *cache) clearReady() {
	for i := range c.entries {
		c.entries[i].meta &^= metaReadyMask
	}
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
