package exec

import (
	"fmt"

	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// IndexLookupProject is the S/4HANA-style OLTP operator of
// Section VI-E: probe the inverted indexes of the primary-key columns
// for the given key values, intersect the resulting row sets, then
// project the qualifying rows to a set of columns — each projection
// reads the row's code and decompresses it through the column's
// dictionary. The dictionaries are the OLTP query's hot working set;
// an OLAP scan evicting them is exactly the pollution Figure 12 shows.
type IndexLookupProject struct {
	Indexes []*column.InvertedIndex
	Keys    []int64 // one per index
	Project []*column.Column

	phase     int // index being probed; len(Indexes) = projecting
	rows      []uint32
	projRow   int
	projCol   int
	Projected int64
}

// NewIndexLookupProject constructs the operator. keys[i] is probed in
// indexes[i]; rows matching every key are projected to the given
// columns.
func NewIndexLookupProject(indexes []*column.InvertedIndex, keys []int64, project []*column.Column) (*IndexLookupProject, error) {
	if len(indexes) == 0 || len(indexes) != len(keys) {
		return nil, fmt.Errorf("exec: %d indexes for %d keys", len(indexes), len(keys))
	}
	if len(project) == 0 {
		return nil, fmt.Errorf("exec: nothing to project")
	}
	return &IndexLookupProject{Indexes: indexes, Keys: keys, Project: project}, nil
}

// Rows returns the matching rows once the probe phases are complete.
func (p *IndexLookupProject) Rows() []uint32 { return p.rows }

// Step advances the operator. Row-units are index postings scanned or
// column values projected, so budget bounds memory traffic as for the
// other kernels.
func (p *IndexLookupProject) Step(ctx *Ctx, budget int) (int, bool) {
	processed := 0
	for processed < budget {
		if p.phase < len(p.Indexes) {
			processed += p.probeOne(ctx)
			continue
		}
		if p.projRow >= len(p.rows) {
			return processed, true
		}
		row := int(p.rows[p.projRow])
		col := p.Project[p.projCol]
		// Point access into the code vector, then the dictionary
		// entry; wide (NVARCHAR-like) entries span several lines. The
		// projection's compute cost follows the last read.
		ctx.Read(col.Codes.Addr(row))
		code := col.Codes.Get(row)
		base := uint64(code) * col.Dict.EntrySize()
		for off := uint64(0); off < col.Dict.EntrySize(); off += memory.LineSize {
			ctx.Read(col.Dict.Region().Addr(base + off))
		}
		ctx.Compute(LookupCyclesPerRow, LookupInstrsPerRow)
		_ = col.Dict.Value(code)
		p.Projected++
		processed++
		p.projCol++
		if p.projCol >= len(p.Project) {
			p.projCol = 0
			p.projRow++
		}
	}
	return processed, false
}

// probeOne probes the next index completely and intersects its rows
// into the running result. Index probes are short; doing one whole
// probe per call keeps the kernel simple without exceeding any
// realistic budget.
func (p *IndexLookupProject) probeOne(ctx *Ctx) int {
	ix := p.Indexes[p.phase]
	key := p.Keys[p.phase]
	p.phase++

	code, ok := ix.Column().Dict.CodeOf(key)
	// Dictionary lookup to translate the literal to a code.
	if ix.Column().Dict.Len() > 0 {
		probe := code
		if !ok {
			probe = 0
		}
		ctx.Read(ix.Column().Dict.Addr(probe))
	}
	ctx.Compute(LookupCyclesPerRow, LookupInstrsPerRow)
	if !ok {
		p.rows = nil
		p.phase = len(p.Indexes)
		return 1
	}

	ctx.Read(ix.HeaderAddr(code))
	postings := ix.PostingsOf(code)
	// Read the posting list, one access per touched line (16 row ids
	// per 64-byte line).
	for k := 0; k < len(postings); k += 16 {
		ctx.Read(ix.PostingAddr(code, k))
	}
	ctx.Compute(int64(len(postings)/8+1), uint64(len(postings)/4+2))

	if p.phase == 1 {
		p.rows = append(p.rows[:0], postings...)
	} else {
		p.rows = intersectSorted(p.rows, postings)
	}
	if n := len(postings); n > 0 {
		return n
	}
	return 1
}

// intersectSorted intersects two ascending row-id lists in place of a.
func intersectSorted(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
