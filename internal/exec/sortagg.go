package exec

import (
	"fmt"
	"sort"

	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// SortAggLocal is a sort-based grouped aggregation, the alternative
// algorithm family of the paper's related work (Müller et al.,
// "Cache-Efficient Aggregation: Hashing Is Sorting"). Instead of
// probing a hash table per row, it radix-scatters (group, value) pairs
// into buckets — a bounded set of sequential write streams — and then
// aggregates each bucket after sorting it. Its cache working set is
// the bucket write tails (one line per bucket) rather than a
// group-count-sized table, so it trades extra materialisation
// bandwidth for insensitivity to LLC capacity: the contrast the
// ablation benchmarks measure.
type SortAggLocal struct {
	GroupCol *column.Column
	ValueCol *column.Column
	From     int
	To       int
	// Buckets is the radix fan-out (default 256).
	Buckets int

	space  *memory.Space
	region memory.Region // bucket storage, one contiguous area

	// Real data: scattered (group, value) pairs per bucket.
	pairs   [][]aggPair
	offsets []uint64 // simulated write offset per bucket

	stage     int // 0 scatter, 1 sort+aggregate
	cur       int
	lastGLine uint64
	lastVLine uint64
	started   bool
	bucket    int
	// MAX per group, indexed by group code — dense because codes are
	// dictionary positions; resultSet marks groups actually seen.
	resultVal []int64
	resultSet []bool
}

type aggPair struct {
	group uint32
	val   int64
}

const pairBytes = 12

// NewSortAggLocal constructs the kernel over [from, to); the bucket
// area is allocated once per kernel in the given space.
func NewSortAggLocal(space *memory.Space, group, value *column.Column, from, to int, buckets int) (*SortAggLocal, error) {
	if group.Rows() != value.Rows() {
		return nil, fmt.Errorf("exec: group column has %d rows, value column %d", group.Rows(), value.Rows())
	}
	if from < 0 || to > group.Rows() || from > to {
		return nil, fmt.Errorf("exec: aggregation range [%d,%d) out of %d rows", from, to, group.Rows())
	}
	if buckets <= 0 {
		buckets = 256
	}
	rows := to - from
	// Per-bucket capacity with 2x slack for hash skew; the area is
	// simulated only, so slack costs no real memory.
	size := uint64(rows*2+buckets*8) * pairBytes
	a := &SortAggLocal{
		GroupCol:  group,
		ValueCol:  value,
		From:      from,
		To:        to,
		Buckets:   buckets,
		space:     space,
		region:    space.Alloc("sortagg", size),
		pairs:     make([][]aggPair, buckets),
		offsets:   make([]uint64, buckets),
		cur:       from,
		resultVal: make([]int64, group.Dict.Len()),
		resultSet: make([]bool, group.Dict.Len()),
	}
	// Partition the simulated area evenly across buckets.
	per := size / uint64(buckets)
	for b := range a.offsets {
		a.offsets[b] = uint64(b) * per
	}
	return a, nil
}

// Result returns MAX per group after the kernel completes. The map is
// materialised from the dense per-code array on each call; the kernel
// itself never touches a map.
func (a *SortAggLocal) Result() map[uint32]int64 {
	out := make(map[uint32]int64)
	for g, set := range a.resultSet {
		if set {
			out[uint32(g)] = a.resultVal[g]
		}
	}
	return out
}

// bucketOf spreads group codes across buckets.
func (a *SortAggLocal) bucketOf(g uint32) int {
	return int(hash(g) % uint32(a.Buckets))
}

// Step advances the kernel; row-units are scattered rows (stage 0) or
// aggregated pairs (stage 1).
func (a *SortAggLocal) Step(ctx *Ctx, budget int) (int, bool) {
	processed := 0
	for processed < budget {
		switch a.stage {
		case 0:
			if a.cur >= a.To {
				a.stage = 1
				a.bucket = 0
				a.cur = 0
				continue
			}
			g, v := a.GroupCol.Codes, a.ValueCol.Codes
			if gl := g.LineOfRow(a.cur); !a.started || gl != a.lastGLine {
				ctx.Read(g.Region().Addr(gl * memory.LineSize))
				a.lastGLine = gl
			}
			if vl := v.LineOfRow(a.cur); !a.started || vl != a.lastVLine {
				ctx.Read(v.Region().Addr(vl * memory.LineSize))
				a.lastVLine = vl
			}
			a.started = true
			gcode := g.Get(a.cur)
			ctx.Read(a.ValueCol.Dict.Addr(v.Get(a.cur)))
			val := a.ValueCol.Dict.Value(v.Get(a.cur))
			b := a.bucketOf(gcode)
			a.pairs[b] = append(a.pairs[b], aggPair{group: gcode, val: val})
			// Sequential append into the bucket's write stream; under
			// extreme skew the simulated stream wraps within its area.
			per := a.region.Size / uint64(a.Buckets)
			if a.offsets[b]-uint64(b)*per >= per-pairBytes {
				a.offsets[b] = uint64(b) * per
			}
			ctx.Write(a.region.Addr(a.offsets[b]))
			a.offsets[b] += pairBytes
			ctx.Compute(AggCyclesPerRow, AggInstrsPerRow)
			a.cur++
			processed++

		case 1:
			if a.bucket >= a.Buckets {
				return processed, true
			}
			pairs := a.pairs[a.bucket]
			if a.cur == 0 && len(pairs) > 1 {
				// Sorting the bucket: O(n log n) compute plus one
				// sequential pass of reads over its pairs.
				sort.Slice(pairs, func(i, j int) bool { return pairs[i].group < pairs[j].group })
				n := int64(len(pairs))
				ctx.Compute(n*4, uint64(n)*6)
			}
			// Aggregate a run of pairs, reading their lines
			// sequentially.
			per := a.region.Size / uint64(a.Buckets)
			base := uint64(a.bucket) * per
			for processed < budget && a.cur < len(pairs) {
				if a.cur%5 == 0 { // ~5 pairs per cache line
					ctx.Read(a.region.Addr(base + uint64(a.cur)*pairBytes%(per-pairBytes)))
				}
				p := pairs[a.cur]
				if !a.resultSet[p.group] || p.val > a.resultVal[p.group] {
					a.resultSet[p.group] = true
					a.resultVal[p.group] = p.val
				}
				ctx.Compute(2, 4)
				a.cur++
				processed++
			}
			if a.cur >= len(pairs) {
				a.bucket++
				a.cur = 0
			}
		}
	}
	return processed, false
}
