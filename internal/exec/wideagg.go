package exec

import (
	"fmt"

	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// WideAggLocal is the grouped-aggregation kernel for analytical
// pipelines that aggregate several value columns at once (e.g. TPC-H
// Q1 sums extendedprice, quantity, discount and tax). Per row it reads
// the grouping code, then each value column's code (sequential) and
// dictionary entry (random), and folds everything into one hash-table
// update. The per-row dictionary traffic across several columns is
// what makes queries like TPC-H Q1 profit from cache partitioning
// (Section VI-D).
type WideAggLocal struct {
	GroupCol  *column.Column
	ValueCols []*column.Column
	From      int
	To        int
	Table     *AggTable

	// SampleEvery models predicate selectivity upstream of the
	// aggregation: only every k-th row is decoded and folded; the
	// other rows are streamed past (their input lines are still
	// read). 0 or 1 aggregates every row.
	SampleEvery int

	cur       int
	started   bool
	lastGLine uint64
	lastVLine []uint64
}

// NewWideAggLocal constructs the kernel over [from, to).
func NewWideAggLocal(group *column.Column, values []*column.Column, from, to int, table *AggTable) (*WideAggLocal, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("exec: wide aggregation needs value columns")
	}
	for _, v := range values {
		if v.Rows() != group.Rows() {
			return nil, fmt.Errorf("exec: value column %q has %d rows, group column %d",
				v.Name, v.Rows(), group.Rows())
		}
	}
	if from < 0 || to > group.Rows() || from > to {
		return nil, fmt.Errorf("exec: aggregation range [%d,%d) out of %d rows", from, to, group.Rows())
	}
	return &WideAggLocal{
		GroupCol:  group,
		ValueCols: values,
		From:      from,
		To:        to,
		Table:     table,
		cur:       from,
		lastVLine: make([]uint64, len(values)),
	}, nil
}

// Step processes up to budget rows. Each row's reads — group line,
// value-column lines, dictionary entries — come before the table
// update and its probe.
func (a *WideAggLocal) Step(ctx *Ctx, budget int) (int, bool) {
	g := a.GroupCol.Codes
	gRegion := g.Region()
	every := a.SampleEvery
	if every < 1 {
		every = 1
	}
	processed := 0
	for processed < budget && a.cur < a.To {
		if gl := g.LineOfRow(a.cur); !a.started || gl != a.lastGLine {
			ctx.Read(gRegion.Addr(gl * memory.LineSize))
			a.lastGLine = gl
		}
		selected := a.cur%every == 0
		var gcode uint32
		if selected {
			gcode = g.Get(a.cur)
		}
		var sum int64
		for i, vc := range a.ValueCols {
			codes := vc.Codes
			if vl := codes.LineOfRow(a.cur); !a.started || vl != a.lastVLine[i] {
				ctx.Read(codes.Region().Addr(vl * memory.LineSize))
				a.lastVLine[i] = vl
			}
			if !selected {
				continue
			}
			vcode := codes.Get(a.cur)
			ctx.Read(vc.Dict.Addr(vcode))
			sum += vc.Dict.Value(vcode)
		}
		a.started = true
		if selected {
			a.Table.UpdateSum(ctx, gcode, sum)
			ctx.Compute(AggCyclesPerRow+int64(len(a.ValueCols)), AggInstrsPerRow+2*uint64(len(a.ValueCols)))
		} else {
			ctx.Compute(1, 2)
		}
		a.cur++
		processed++
	}
	return processed, a.cur >= a.To
}
