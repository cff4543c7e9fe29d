package exec

import (
	"fmt"

	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// AggLocal is the first phase of grouped aggregation (the paper's
// Query 2): one worker collects MAX(value) per group over its row
// partition into a thread-local hash table. Per row it reads the
// grouping code and the value code (sequential, prefetch-friendly),
// decompresses the value through the dictionary (random access — this
// is the dictionary-size sensitivity of Figure 5), and probes the
// local table (random access — the group-count sensitivity).
type AggLocal struct {
	GroupCol *column.Column
	ValueCol *column.Column
	From     int
	To       int
	Table    *AggTable

	cur                  int
	lastGLine, lastVLine uint64
	started              bool
}

// NewAggLocal constructs the MAX local phase over [from, to) — the
// paper's Query 2.
func NewAggLocal(group, value *column.Column, from, to int, table *AggTable) (*AggLocal, error) {
	if group.Rows() != value.Rows() {
		return nil, fmt.Errorf("exec: group column has %d rows, value column %d", group.Rows(), value.Rows())
	}
	if from < 0 || to > group.Rows() || from > to {
		return nil, fmt.Errorf("exec: aggregation range [%d,%d) out of %d rows", from, to, group.Rows())
	}
	return &AggLocal{GroupCol: group, ValueCol: value, From: from, To: to, Table: table, cur: from}, nil
}

// Step processes up to budget rows. Per row it reads the group line
// and the value line when the row enters a new one, then the value's
// dictionary entry, then probes the table.
func (a *AggLocal) Step(ctx *Ctx, budget int) (int, bool) {
	g, v := a.GroupCol.Codes, a.ValueCol.Codes
	gRegion, vRegion := g.Region(), v.Region()
	processed := 0
	for processed < budget && a.cur < a.To {
		if gl := g.LineOfRow(a.cur); !a.started || gl != a.lastGLine {
			ctx.Read(gRegion.Addr(gl * memory.LineSize))
			a.lastGLine = gl
		}
		if vl := v.LineOfRow(a.cur); !a.started || vl != a.lastVLine {
			ctx.Read(vRegion.Addr(vl * memory.LineSize))
			a.lastVLine = vl
		}
		a.started = true
		gcode := g.Get(a.cur)
		vcode := v.Get(a.cur)
		// Decompress the value: random dictionary access.
		ctx.Read(a.ValueCol.Dict.Addr(vcode))
		val := a.ValueCol.Dict.Value(vcode)
		a.Table.Update(ctx, AggMax, gcode, val)
		ctx.Compute(AggCyclesPerRow, AggInstrsPerRow)
		a.cur++
		processed++
	}
	return processed, a.cur >= a.To
}

// AggMerge is the second phase: it folds the worker-local tables into
// the global result table (Section II: hash tables are used "globally
// to merge thread-local results"). Row-units are scanned local slots.
// Kind must match the fold the local phase applied.
type AggMerge struct {
	Locals []*AggTable
	Global *AggTable
	Kind   AggKind

	li, si int
}

// NewAggMerge constructs a MAX merge phase (the paper's Query 2).
func NewAggMerge(locals []*AggTable, global *AggTable) *AggMerge {
	return &AggMerge{Locals: locals, Global: global, Kind: AggMax}
}

// NewAggMergeKind constructs a merge phase with an explicit fold.
func NewAggMergeKind(locals []*AggTable, global *AggTable, kind AggKind) *AggMerge {
	return &AggMerge{Locals: locals, Global: global, Kind: kind}
}

// Step scans up to budget local slots, merging occupied ones.
func (m *AggMerge) Step(ctx *Ctx, budget int) (int, bool) {
	processed := 0
	for processed < budget {
		if m.li >= len(m.Locals) {
			return processed, true
		}
		t := m.Locals[m.li]
		if m.si >= t.Cap() {
			m.li++
			m.si = 0
			continue
		}
		// Sequential pass over the local table, one read per line.
		if m.si%4 == 0 {
			ctx.Read(t.slotAddr(m.si))
		}
		if s := t.slots[m.si]; s.used {
			m.Global.Update(ctx, m.Kind, s.key, s.val)
			ctx.Compute(AggCyclesPerRow, AggInstrsPerRow)
		} else {
			ctx.Compute(1, 2)
		}
		m.si++
		processed++
	}
	return processed, m.li >= len(m.Locals)
}
