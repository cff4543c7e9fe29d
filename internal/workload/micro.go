// Package workload builds the data sets and query implementations of
// the paper's experiments: the three micro-benchmark queries of
// Figure 2 over the schemata of Figure 3, plus (in subpackages) the
// TPC-H-profile workload of Figure 11 and the S/4HANA-style OLTP
// workload of Figures 1 and 12.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// EncodeUniformDense builds a dense-dictionary column of n values
// drawn uniformly from [lo, hi], with entrySize bytes per dictionary
// entry, without materialising an intermediate value slice, so
// multi-million-row samples stay cheap to load. Row i holds the i-th
// draw of rng.Int63n(hi-lo+1). It is EncodeUniformColumns' one-column
// case.
func EncodeUniformDense(space *memory.Space, name string, rng *Rand, n int, lo, hi int64, entrySize uint64) (*column.Column, error) {
	cols, err := EncodeUniformColumns(space, rng, []UniformSpec{{name, n, lo, hi, entrySize}})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// UniformSpec describes one column of EncodeUniformColumns: Rows
// values drawn uniformly from [Lo, Hi], EntrySize bytes per dictionary
// entry.
type UniformSpec struct {
	Name      string
	Rows      int
	Lo, Hi    int64
	EntrySize uint64
}

// EncodeUniformColumns builds one uniform dense-dictionary column per
// spec, exactly as building them one at a time in list order would:
// every dictionary and code vector is allocated in that order, and
// row i of a column holds its i-th draw after the columns before it.
//
// The draws are laid end to end and split where their midpoint falls,
// rounded down to a multiple of 256 rows within that column, a word
// boundary at every code width, when each side holds at least minHalf
// draws. A helper goroutine encodes everything before the split from a
// copy of the source while the caller skips those draws, column by
// column with each column's own bound, encodes the rest and waits. The
// two sides write disjoint words, and rng ends where the draws in order
// leave it, whatever the schedule.
func EncodeUniformColumns(space *memory.Space, rng *Rand, specs []UniformSpec) ([]*column.Column, error) {
	cols := make([]*column.Column, len(specs))
	ds := make([]bounded, len(specs))
	for i, sp := range specs {
		dict, err := column.NewDenseDictionary(space, sp.Name, sp.Lo, sp.Hi, sp.EntrySize)
		if err != nil {
			return nil, err
		}
		codes, err := column.NewPackedVector(space, sp.Name, sp.Rows, dict.CodeBits())
		if err != nil {
			return nil, err
		}
		cols[i] = &column.Column{Name: sp.Name, Dict: dict, Codes: codes}
		ds[i] = newBounded(sp.Hi - sp.Lo + 1)
	}
	s := rng.src
	c, mid, ok := split(specs)
	if !ok {
		for i, col := range cols {
			ds[i].encode(s, col.Codes, 0, col.Rows())
		}
		return cols, nil
	}
	first := *s
	done := make(chan struct{})
	go func() {
		for i, col := range cols[:c] {
			ds[i].encode(&first, col.Codes, 0, col.Rows())
		}
		ds[c].encode(&first, cols[c].Codes, 0, mid)
		close(done)
	}()
	for i, col := range cols[:c] {
		ds[i].skip(s, col.Rows())
	}
	ds[c].skip(s, mid)
	ds[c].encode(s, cols[c].Codes, mid, cols[c].Rows())
	for i := c + 1; i < len(cols); i++ {
		ds[i].encode(s, cols[i].Codes, 0, cols[i].Rows())
	}
	<-done
	return cols, nil
}

// split returns where EncodeUniformColumns divides the draws of specs:
// before row mid of column c, where the draws' midpoint falls, rounded
// down to a multiple of 256. ok is false when a side would hold fewer
// than minHalf draws.
func split(specs []UniformSpec) (c, mid int, ok bool) {
	total, before := 0, 0
	for _, sp := range specs {
		total += sp.Rows
	}
	for c < len(specs)-1 && before+specs[c].Rows <= total/2 {
		before += specs[c].Rows
		c++
	}
	mid = (total/2 - before) &^ 255
	return c, mid, before+mid >= minHalf && total-before-mid >= minHalf
}

// minHalf is the fewest draws a side must have for
// EncodeUniformColumns to split: the smallest half measured to win. A
// second core woken from idle starts the helper 1–4 ms late; 2^19
// draws take about 2.5 ms to encode, and splitting a 2^20-draw job
// lost, while 2^21 take about 9 ms, and splitting a 2^22-draw job won.
const minHalf = 1 << 21

// encode packs rows [from, to) of codes from the next to−from draws
// of s, 256 at a time.
func (b *bounded) encode(s *source, codes *column.PackedVector, from, to int) {
	var run [256]uint32
	for ; from < to; from += len(run) {
		r := run[:min(len(run), to-from)]
		b.fill(s, r)
		codes.PackRun(from, r)
	}
}

// DistinctInts samples n distinct integers from [lo, hi] in random
// order; n must not exceed the domain size. For small domains it
// shuffles; for large ones it uses rejection sampling.
func DistinctInts(rng *Rand, n int, lo, hi int64) ([]int64, error) {
	span := hi - lo + 1
	if int64(n) > span {
		return nil, fmt.Errorf("workload: %d distinct values from domain of %d", n, span)
	}
	if int64(n)*2 >= span {
		all := make([]int64, span)
		for i := range all {
			all[i] = lo + int64(i)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:n], nil
	}
	d := newBounded(span)
	seen := make(map[int64]struct{}, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		v := lo + d.draw(rng.src)
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out, nil
}

// bounded draws from [0, n) exactly as (*rand.Rand).Int63n(n) does,
// draw for draw, with the per-draw divisions prepared once per n.
// Int63n rejects raw draws above its bound and reduces the rest modulo
// n; a power of two masks instead, which is the same remainder under a
// bound that rejects nothing. The bound is computed here, and the
// remainder is computed from a 128-bit reciprocal of n without a
// divide (Lemire, Kaser & Kurz, "Faster Remainder by Direct
// Computation", 2019).
type bounded struct {
	n   uint64
	max int64 // the largest raw draw Int63n accepts
	// c is ceil(2^128 / n) mod 2^128, as high and low words.
	chi, clo uint64
}

func newBounded(n int64) bounded {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	d := uint64(n)
	qhi, r := bits.Div64(0, math.MaxUint64, d)
	qlo, _ := bits.Div64(r, math.MaxUint64, d)
	clo, carry := bits.Add64(qlo, 1, 0)
	return bounded{n: d, max: int64(math.MaxInt64 - (1<<63)%d), chi: qhi + carry, clo: clo}
}

// draw returns the next value Int63n(n) would return from s.
func (b *bounded) draw(s *source) int64 {
	v := s.Int63()
	for v > b.max {
		v = s.Int63()
	}
	return b.mod(uint64(v))
}

// fill sets each code of dst to the next value Int63n(n) would return
// from s, n < 2^32, reading the raw draws straight from s's buffer.
func (b *bounded) fill(s *source, dst []uint32) {
	pos := s.pos
	for j := range dst {
		for {
			if pos == len(s.buf) {
				s.refill()
				pos = s.pos
			}
			v := int64(s.buf[pos] &^ (1 << 63))
			pos++
			if v <= b.max {
				dst[j] = uint32(b.mod(uint64(v)))
				break
			}
		}
	}
	s.pos = pos
}

// skip leaves s where k draws of fill would, rejections included,
// without computing a code. It takes up to k raw draws at a time; each
// rejected one needs one more.
func (b *bounded) skip(s *source, k int) {
	for k > 0 {
		if s.pos == len(s.buf) {
			s.refill()
		}
		end := s.pos + min(k, len(s.buf)-s.pos)
		for _, u := range s.buf[s.pos:end] {
			if int64(u&^(1<<63)) > b.max {
				k++
			}
		}
		k -= end - s.pos
		s.pos = end
	}
}

// mod returns v mod n for v < 2^63: the low 128 bits of c·v, times n,
// shifted right by 128. It is exact because c carries 128 bits, at
// least the 63 of v plus the 63 of n.
func (b *bounded) mod(v uint64) int64 {
	fhi, flo := bits.Mul64(b.clo, v)
	fhi += b.chi * v
	top, _ := bits.Mul64(flo, b.n)
	rem, mid := bits.Mul64(fhi, b.n)
	_, carry := bits.Add64(mid, top, 0)
	return int64(rem + carry)
}

// Q1Spec describes the column-scan data set: a single INT column of
// Rows values drawn uniformly from 1..Distinct (the paper: 10^9 rows,
// 10^6 distinct, 20-bit codes).
type Q1Spec struct {
	Rows     int
	Distinct int64
}

// ScanQuery is Query 1: SELECT COUNT(*) FROM A WHERE A.X > ?, with "?"
// redrawn uniformly from the domain for every execution.
type ScanQuery struct {
	Label string
	Col   *column.Column
	spec  Q1Spec
}

// NewQ1 generates the data set and returns the query.
func NewQ1(space *memory.Space, rng *Rand, spec Q1Spec) (*ScanQuery, error) {
	if spec.Rows <= 0 || spec.Distinct <= 0 {
		return nil, fmt.Errorf("workload: bad Q1 spec %+v", spec)
	}
	col, err := EncodeUniformDense(space, "A.X", rng, spec.Rows, 1, spec.Distinct, column.DefaultEntrySize)
	if err != nil {
		return nil, err
	}
	return &ScanQuery{Label: "Q1(scan)", Col: col, spec: spec}, nil
}

// Name identifies the query in results.
func (q *ScanQuery) Name() string { return q.Label }

// Spec returns the data-set parameters.
func (q *ScanQuery) Spec() Q1Spec { return q.spec }

// Plan builds one execution: a single polluting scan phase
// partitioned across the cores.
func (q *ScanQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	bound := 1 + rng.Int63n(q.spec.Distinct)
	parts := engine.PartitionRows(q.Col.Rows(), cores)
	kernels := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		k, err := exec.NewColumnScan(q.Col, p[0], p[1], bound)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	return []engine.Phase{{
		Name:      "scan",
		CUID:      core.Polluting,
		Kernels:   kernels,
		CountRows: true,
	}}, nil
}

// Q2Spec describes the aggregation data set: Rows rows with a value
// column of DistinctV distinct values (dictionary size = 4·DistinctV
// bytes) and a grouping column of Groups distinct values (hash table
// size tracks Groups).
type Q2Spec struct {
	Rows      int
	DistinctV int64
	Groups    int64
}

// AggQuery is Query 2: SELECT MAX(B.V), B.G FROM B GROUP BY B.G,
// executed as parallel thread-local aggregation followed by a merge.
type AggQuery struct {
	Label    string
	GroupCol *column.Column
	ValueCol *column.Column
	spec     Q2Spec

	space      *memory.Space
	locals     []*exec.AggTable
	global     *exec.AggTable
	lastResult map[uint32]int64
}

// NewQ2 generates the data set and returns the query.
func NewQ2(space *memory.Space, rng *Rand, spec Q2Spec) (*AggQuery, error) {
	if spec.Rows <= 0 || spec.DistinctV <= 0 || spec.Groups <= 0 {
		return nil, fmt.Errorf("workload: bad Q2 spec %+v", spec)
	}
	gcol, err := EncodeUniformDense(space, "B.G", rng, spec.Rows, 1, spec.Groups, column.DefaultEntrySize)
	if err != nil {
		return nil, err
	}
	vcol, err := EncodeUniformDense(space, "B.V", rng, spec.Rows, 1, spec.DistinctV, column.DefaultEntrySize)
	if err != nil {
		return nil, err
	}
	return &AggQuery{
		Label:    "Q2(agg)",
		GroupCol: gcol,
		ValueCol: vcol,
		spec:     spec,
		space:    space,
	}, nil
}

// Name identifies the query in results.
func (q *AggQuery) Name() string { return q.Label }

// Spec returns the data-set parameters.
func (q *AggQuery) Spec() Q2Spec { return q.spec }

// Global exposes the merged result table of the in-flight execution.
func (q *AggQuery) Global() *exec.AggTable { return q.global }

// LastResult returns the MAX-per-group result of the most recently
// completed execution (nil before the first one finishes).
func (q *AggQuery) LastResult() map[uint32]int64 { return q.lastResult }

// ensureTables sizes the worker-local tables for the planned core
// count once and reuses them across executions — their capacity, a
// function of the group count, is the cache footprint Figure 5 sweeps.
func (q *AggQuery) ensureTables(cores int) {
	groups := int(q.spec.Groups)
	if len(q.locals) != cores {
		q.locals = make([]*exec.AggTable, cores)
		for i := range q.locals {
			q.locals[i] = exec.NewAggTable(q.space, fmt.Sprintf("B.agg.local%d", i), groups)
		}
	}
	if q.global == nil {
		q.global = exec.NewAggTable(q.space, "B.agg.global", groups)
	}
}

// PrewarmRegions declares the aggregation's steady-state working set:
// the value dictionary and the hash tables.
func (q *AggQuery) PrewarmRegions(cores int) []memory.Region {
	q.ensureTables(cores)
	regions := []memory.Region{q.ValueCol.Dict.Region()}
	for _, lt := range q.locals {
		regions = append(regions, lt.Region())
	}
	regions = append(regions, q.global.Region())
	return regions
}

// Plan builds one execution: a cache-sensitive local aggregation phase
// and a merge phase.
func (q *AggQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	q.ensureTables(cores)
	parts := engine.PartitionRows(q.GroupCol.Rows(), cores)
	locals := make([]exec.Kernel, 0, len(parts))
	for i, p := range parts {
		q.locals[i].Clear()
		k, err := exec.NewAggLocal(q.GroupCol, q.ValueCol, p[0], p[1], q.locals[i])
		if err != nil {
			return nil, err
		}
		locals = append(locals, k)
	}
	// A non-empty global table is the previous execution's completed
	// result; snapshot it before clearing for the next run.
	if q.global.Len() > 0 {
		q.lastResult = make(map[uint32]int64, q.global.Len())
		q.global.Each(func(k uint32, v int64) { q.lastResult[k] = v })
	}
	q.global.Clear()
	// Parallel merge: each worker folds its own local table into the
	// shared global table (virtual-time execution serialises the
	// updates deterministically).
	merges := make([]exec.Kernel, 0, len(parts))
	for i := range parts {
		merges = append(merges, exec.NewAggMerge([]*exec.AggTable{q.locals[i]}, q.global))
	}
	return []engine.Phase{
		{
			Name:      "aggregate-local",
			CUID:      core.Sensitive,
			Kernels:   locals,
			CountRows: true,
		},
		{
			Name:    "aggregate-merge",
			CUID:    core.Sensitive,
			Kernels: merges,
		},
	}, nil
}

// Q3Spec describes the foreign-key join data set. Keys is the primary
// key cardinality N (bit vector of N bits); ProbeRows foreign keys are
// scanned per execution. BuildRows primary-key rows are scanned per
// execution to maintain the paper's build:probe work ratio N : 10^9
// under sampling (PaperProbeRows rescales that ratio; it defaults to
// 10^9).
type Q3Spec struct {
	ProbeRows      int
	Keys           int64
	PaperKeys      int64 // unscaled N for the work ratio; defaults to Keys
	PaperProbeRows int64 // defaults to 1e9
}

// BuildRowsPerExec computes the sampled build-side rows.
func (s Q3Spec) BuildRowsPerExec() int {
	paperKeys := s.PaperKeys
	if paperKeys == 0 {
		paperKeys = s.Keys
	}
	paperProbe := s.PaperProbeRows
	if paperProbe == 0 {
		paperProbe = 1_000_000_000
	}
	b := int(float64(s.ProbeRows) * float64(paperKeys) / float64(paperProbe))
	if b < 1 {
		b = 1
	}
	return b
}

// JoinQuery is Query 3: SELECT COUNT(*) FROM R, S WHERE R.P = S.F,
// executed as a bit-vector build over R's primary keys followed by a
// probe scan over S's foreign keys.
type JoinQuery struct {
	Label string
	PKCol *column.Column
	FKCol *column.Column
	BV    *exec.BitVector
	spec  Q3Spec
}

// NewQ3 generates the data set and returns the query. The bit vector
// is fully populated at load time (every key 1..N exists in R); each
// execution re-builds a ratio-preserving sample of it and probes all
// foreign keys.
func NewQ3(space *memory.Space, rng *Rand, spec Q3Spec) (*JoinQuery, error) {
	if spec.ProbeRows <= 0 || spec.Keys <= 0 {
		return nil, fmt.Errorf("workload: bad Q3 spec %+v", spec)
	}
	buildRows := spec.BuildRowsPerExec()
	pkVals, err := DistinctInts(rng, buildRows, 1, spec.Keys)
	if err != nil {
		// More build rows than keys (tiny scales): fall back to the
		// full key set shuffled.
		pkVals, err = DistinctInts(rng, int(spec.Keys), 1, spec.Keys)
		if err != nil {
			return nil, err
		}
	}
	pkCol, err := column.EncodeDense(space, "R.P", pkVals, 1, spec.Keys, column.DefaultEntrySize)
	if err != nil {
		return nil, err
	}
	fkCol, err := EncodeUniformDense(space, "S.F", rng, spec.ProbeRows, 1, spec.Keys, column.DefaultEntrySize)
	if err != nil {
		return nil, err
	}
	bv, err := exec.NewBitVector(space, "R.P.bv", 1, uint64(spec.Keys))
	if err != nil {
		return nil, err
	}
	bv.SetAll()
	return &JoinQuery{Label: "Q3(join)", PKCol: pkCol, FKCol: fkCol, BV: bv, spec: spec}, nil
}

// Name identifies the query in results.
func (q *JoinQuery) Name() string { return q.Label }

// Spec returns the data-set parameters.
func (q *JoinQuery) Spec() Q3Spec { return q.spec }

// Footprint reports the bit-vector size hint the policy's Depends
// heuristic consumes.
func (q *JoinQuery) Footprint() core.Footprint {
	return core.Footprint{BitVectorBytes: q.BV.Bytes()}
}

// PrewarmRegions declares the join's steady-state working set: the bit
// vector.
func (q *JoinQuery) PrewarmRegions(cores int) []memory.Region {
	return []memory.Region{q.BV.Region()}
}

// Plan builds one execution: build then probe, both under the Depends
// identifier with the bit-vector footprint hint.
func (q *JoinQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	fp := q.Footprint()
	buildParts := engine.PartitionRows(q.PKCol.Rows(), cores)
	builds := make([]exec.Kernel, 0, len(buildParts))
	for _, p := range buildParts {
		k, err := exec.NewJoinBuild(q.PKCol, p[0], p[1], q.BV)
		if err != nil {
			return nil, err
		}
		builds = append(builds, k)
	}
	probeParts := engine.PartitionRows(q.FKCol.Rows(), cores)
	probes := make([]exec.Kernel, 0, len(probeParts))
	for _, p := range probeParts {
		k, err := exec.NewJoinProbe(q.FKCol, p[0], p[1], q.BV)
		if err != nil {
			return nil, err
		}
		probes = append(probes, k)
	}
	return []engine.Phase{
		{
			Name:      "join-build",
			CUID:      core.Depends,
			Footprint: fp,
			Kernels:   builds,
			CountRows: true,
		},
		{
			Name:      "join-probe",
			CUID:      core.Depends,
			Footprint: fp,
			Kernels:   probes,
			CountRows: true,
		},
	}, nil
}
