package tpch

import (
	"fmt"
	"math/rand"

	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// Op is one stage of a query pipeline. idx identifies the op within
// its query so reusable state (hash tables, bit vectors) can be cached
// across executions.
type Op interface {
	phasesIndexed(q *Query, idx, cores int, rng *rand.Rand) ([]engine.Phase, error)
}

// ScanOp is a predicate scan over one column.
type ScanOp struct {
	Table  string
	Column string
}

// JoinOp is a bit-vector foreign-key join: build over the build
// table's key column, probe the probe table's key column.
type JoinOp struct {
	BuildTable string
	BuildCol   string
	ProbeTable string
	ProbeCol   string
}

// AggOp is a grouped aggregation over the group column, decoding the
// value columns through their dictionaries; Selectivity models an
// upstream filter.
type AggOp struct {
	Table       string
	GroupCol    string
	ValueCols   []string
	Selectivity float64
}

// Query executes one TPC-H pipeline. Every phase it plans is
// Sensitive, whatever its operator: the paper's Figure 11 setup keeps
// each TPC-H job at the full cache.
type Query struct {
	label string
	db    *DB
	ops   []Op
	space *memory.Space

	// Per-AggOp state reused across executions.
	aggTables map[int][]*exec.AggTable
	aggGlobal map[int]*exec.AggTable
	// Per-JoinOp bit vectors reused across executions.
	bitvecs map[int]*exec.BitVector
}

// NewQuery builds query q (1..22) over the database.
func NewQuery(db *DB, space *memory.Space, number int) (*Query, error) {
	if number < 1 || number > Queries {
		return nil, fmt.Errorf("tpch: query %d out of 1..%d", number, Queries)
	}
	spec := specs[number-1]
	return &Query{
		label:     fmt.Sprintf("TPCH-Q%d", number),
		db:        db,
		ops:       spec.Ops,
		space:     space,
		aggTables: make(map[int][]*exec.AggTable),
		aggGlobal: make(map[int]*exec.AggTable),
		bitvecs:   make(map[int]*exec.BitVector),
	}, nil
}

// Name identifies the query in results.
func (q *Query) Name() string { return q.label }

// Plan instantiates all pipeline phases for one execution.
func (q *Query) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	var phases []engine.Phase
	for i, op := range q.ops {
		ph, err := op.phasesIndexed(q, i, cores, rng)
		if err != nil {
			return nil, fmt.Errorf("%s op %d: %w", q.label, i, err)
		}
		phases = append(phases, ph...)
	}
	return phases, nil
}

func (o ScanOp) phasesIndexed(q *Query, _, cores int, rng *rand.Rand) ([]engine.Phase, error) {
	t, err := q.db.Table(o.Table)
	if err != nil {
		return nil, err
	}
	col, err := t.Column(o.Column)
	if err != nil {
		return nil, err
	}
	bound := int64(1)
	if n := int64(col.Dict.Len()); n > 1 {
		bound = 1 + rng.Int63n(n)
	}
	parts := engine.PartitionRows(col.Rows(), cores)
	kernels := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		k, err := exec.NewColumnScan(col, p[0], p[1], bound)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	return []engine.Phase{{
		Name:      "scan-" + o.Column,
		CUID:      core.Sensitive,
		Kernels:   kernels,
		CountRows: true,
	}}, nil
}

func (o JoinOp) phasesIndexed(q *Query, idx, cores int, _ *rand.Rand) ([]engine.Phase, error) {
	bt, err := q.db.Table(o.BuildTable)
	if err != nil {
		return nil, err
	}
	bcol, err := bt.Column(o.BuildCol)
	if err != nil {
		return nil, err
	}
	pt, err := q.db.Table(o.ProbeTable)
	if err != nil {
		return nil, err
	}
	pcol, err := pt.Column(o.ProbeCol)
	if err != nil {
		return nil, err
	}
	bv := q.bitvecs[idx]
	if bv == nil {
		bv, err = exec.NewBitVector(q.space, fmt.Sprintf("%s.bv%d", q.label, idx),
			1, uint64(bcol.Dict.Len()))
		if err != nil {
			return nil, err
		}
		q.bitvecs[idx] = bv
	}
	buildParts := engine.PartitionRows(bcol.Rows(), cores)
	builds := make([]exec.Kernel, 0, len(buildParts))
	for _, p := range buildParts {
		k, err := exec.NewJoinBuild(bcol, p[0], p[1], bv)
		if err != nil {
			return nil, err
		}
		builds = append(builds, k)
	}
	probeParts := engine.PartitionRows(pcol.Rows(), cores)
	probes := make([]exec.Kernel, 0, len(probeParts))
	for _, p := range probeParts {
		k, err := exec.NewJoinProbe(pcol, p[0], p[1], bv)
		if err != nil {
			return nil, err
		}
		probes = append(probes, k)
	}
	return []engine.Phase{
		{Name: "join-build-" + o.BuildCol, CUID: core.Sensitive, Kernels: builds, CountRows: true},
		{Name: "join-probe-" + o.ProbeCol, CUID: core.Sensitive, Kernels: probes, CountRows: true},
	}, nil
}

func (o AggOp) phasesIndexed(q *Query, idx, cores int, _ *rand.Rand) ([]engine.Phase, error) {
	t, err := q.db.Table(o.Table)
	if err != nil {
		return nil, err
	}
	gcol, err := t.Column(o.GroupCol)
	if err != nil {
		return nil, err
	}
	vals := make([]*column.Column, 0, len(o.ValueCols))
	for _, name := range o.ValueCols {
		vc, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		vals = append(vals, vc)
	}
	if len(vals) == 0 {
		// COUNT-style aggregations still group; fold the group column
		// itself so the kernel has a value stream.
		vals = append(vals, gcol)
	}
	groups := gcol.Dict.Len()
	if groups > gcol.Rows() {
		groups = gcol.Rows()
	}
	locals := q.aggTables[idx]
	if len(locals) != cores {
		locals = make([]*exec.AggTable, cores)
		for i := range locals {
			locals[i] = exec.NewAggTable(q.space, fmt.Sprintf("%s.agg%d.l%d", q.label, idx, i), groups)
		}
		q.aggTables[idx] = locals
	}
	global := q.aggGlobal[idx]
	if global == nil {
		global = exec.NewAggTable(q.space, fmt.Sprintf("%s.agg%d.g", q.label, idx), groups)
		q.aggGlobal[idx] = global
	}
	every := 1
	if o.Selectivity > 0 && o.Selectivity < 1 {
		every = int(1/o.Selectivity + 0.5)
	}
	parts := engine.PartitionRows(gcol.Rows(), cores)
	kernels := make([]exec.Kernel, 0, len(parts))
	for i, p := range parts {
		locals[i].Clear()
		k, err := exec.NewWideAggLocal(gcol, vals, p[0], p[1], locals[i])
		if err != nil {
			return nil, err
		}
		k.SampleEvery = every
		kernels = append(kernels, k)
	}
	global.Clear()
	merges := make([]exec.Kernel, 0, len(parts))
	for i := range parts {
		// The wide aggregation folds SUMs, so the merge must too.
		merges = append(merges, exec.NewAggMergeKind([]*exec.AggTable{locals[i]}, global, exec.AggSum))
	}
	return []engine.Phase{
		{Name: "agg-" + o.GroupCol, CUID: core.Sensitive, Kernels: kernels, CountRows: true},
		{Name: "agg-merge-" + o.GroupCol, CUID: core.Sensitive, Kernels: merges},
	}, nil
}
