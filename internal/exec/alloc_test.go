package exec

import (
	"testing"

	"cachepart/internal/allocs"
	"cachepart/internal/column"
)

// These tests are the kernels' share of the alloc budget (DESIGN.md
// §11, beside internal/cachesim/alloc_test.go and the engine loop's
// budgets): once a warm-up Step has started the scan's helper, a Step
// allocates nothing. Aggregation tables are pre-sized, so the
// amortised AggTable.grow stays out of the measurement. SortAggLocal
// is the one streaming kernel that does not hold 0; its ceilings are
// its own counts, as are those of a whole OLTP lookup execution. A
// failure names the lines that allocated (internal/allocs).

// stepsWithin fails when a Step of budget rows allocates more than
// ceiling times in steady state, and names the lines that allocated.
// The kernel must not finish within the warm-up, the measured runs and
// the re-run a failure makes.
func stepsWithin(t *testing.T, name string, ctx *Ctx, k Kernel, budget int, ceiling float64) {
	t.Helper()
	step := func() {
		if _, done := k.Step(ctx, budget); done {
			t.Fatalf("%s ran out before the measurement did", name)
		}
	}
	step()
	got := testing.AllocsPerRun(100, step)
	allocs.Check(t, name+".Step per slice", got, ceiling, func() {
		for i := 0; i < 20; i++ {
			step()
		}
	})
}

// TestColumnScanStepZeroAllocs: the channel, closure and goroutine of
// the functional half are paid once per execution, in the first
// slice's PackedVector.StartCountInRange; every slice after it
// allocates nothing.
func TestColumnScanStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 100_000, 1, 1_000_000, 5)
	scan, err := NewColumnScan(col, 0, col.Rows(), 500_000)
	if err != nil {
		t.Fatal(err)
	}
	stepsWithin(t, "ColumnScan", ctx, scan, 512, 0)
}

func TestAggLocalStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	const rows, groups = 100_000, 500
	g := uniformCol(t, space, "g", rows, 0, groups-1, 1)
	v := uniformCol(t, space, "v", rows, 1, 1_000_000, 2)
	agg, err := NewAggLocal(g, v, 0, rows, NewAggTable(space, "local", groups))
	if err != nil {
		t.Fatal(err)
	}
	stepsWithin(t, "AggLocal", ctx, agg, 512, 0)
	if agg.Table.Grows() != 0 {
		t.Errorf("the local table grew %d times; it was meant to be pre-sized", agg.Table.Grows())
	}
}

func TestAggMergeStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	const groups = 2000
	locals := make([]*AggTable, 4)
	for i := range locals {
		// Sparse locals: the merge scans slots, so capacity is what
		// keeps it from finishing inside the measurement.
		locals[i] = NewAggTable(space, "local", 20_000)
		for k := uint32(0); k < groups; k++ {
			locals[i].UpdateMax(ctx, k, int64(k)*int64(i+1))
		}
	}
	merge := NewAggMerge(locals, NewAggTable(space, "global", groups))
	stepsWithin(t, "AggMerge", ctx, merge, 128, 0)
	if merge.Global.Grows() != 0 {
		t.Errorf("the global table grew %d times; it was meant to be pre-sized", merge.Global.Grows())
	}
}

// TestSortAggLocalStepAllocs: the sort aggregation allocates by design
// — its scatter appends to growing bucket slices and its sort calls
// sort.Slice once per bucket — so its ceilings are the counts it made
// when this test was written, not 0: 15 per scatter slice of 512 rows,
// and 0 per sort slice of 128 pairs, where a bucket's few allocations
// spread over its three slices round down. One allocation per row
// takes either Step at least a hundred over.
func TestSortAggLocalStepAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	const rows, groups = 100_000, 500
	g := uniformCol(t, space, "g", rows, 0, groups-1, 21)
	v := uniformCol(t, space, "v", rows, 1, 1_000_000, 22)
	scatter, err := NewSortAggLocal(space, g, v, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	stepsWithin(t, "SortAggLocal scatter", ctx, scatter, 512, 15)
	sorter, err := NewSortAggLocal(space, g, v, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	sorter.Step(ctx, rows) // the whole scatter; the sort starts next
	stepsWithin(t, "SortAggLocal sort", ctx, sorter, 128, 0)
}

func TestWideAggLocalStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	const rows, groups = 100_000, 50
	g := uniformCol(t, space, "g", rows, 0, groups-1, 11)
	v1 := uniformCol(t, space, "v1", rows, 1, 1000, 12)
	v2 := uniformCol(t, space, "v2", rows, 1, 1000, 13)
	agg, err := NewWideAggLocal(g, []*column.Column{v1, v2}, 0, rows, NewAggTable(space, "t", groups))
	if err != nil {
		t.Fatal(err)
	}
	stepsWithin(t, "WideAggLocal", ctx, agg, 512, 0)
}

func TestJoinStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	const rows, keys = 100_000, 50_000
	keyCol := uniformCol(t, space, "k", rows, 1, keys, 8)
	bv, err := NewBitVector(space, "bv", 1, keys)
	if err != nil {
		t.Fatal(err)
	}
	build, err := NewJoinBuild(keyCol, 0, rows, bv)
	if err != nil {
		t.Fatal(err)
	}
	stepsWithin(t, "JoinBuild", ctx, build, 512, 0)
	probe, err := NewJoinProbe(keyCol, 0, rows, bv)
	if err != nil {
		t.Fatal(err)
	}
	stepsWithin(t, "JoinProbe", ctx, probe, 512, 0)
}

// TestLookupExecutionAllocs: the OLTP operators run one short
// execution per query, so what a query costs is building the kernel
// and Driving it to done. The ceilings are the counts this test
// measured, 2 each for 50 matching rows: the kernel itself and the
// one slice its probe fills or sizes. PKLookupProject reads its
// candidates straight from the index's postings and sizes its row
// slice from them, so verification appends without growing it. One
// allocation per posting or projected value takes either at least 50
// over.
func TestLookupExecutionAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	const n = 5000
	k1, k2, pay := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range k1 {
		k1[i], k2[i], pay[i] = int64(i%10), int64(i/10%10), int64(i)
	}
	c1, _ := column.EncodeDense(space, "k1", k1, 0, 9, 4)
	c2, _ := column.EncodeDense(space, "k2", k2, 0, 9, 4)
	pc, _ := column.EncodeDense(space, "pay", pay, 0, n-1, 4)
	ix1, _ := column.BuildInvertedIndex(space, c1)
	ix2, _ := column.BuildInvertedIndex(space, c2)

	indexes, keys, project := []*column.InvertedIndex{ix1, ix2}, []int64{3, 7}, []*column.Column{pc}
	residualCols, residual := []*column.Column{c2}, []int64{7}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() int
	}{
		{"IndexLookupProject", 2, func() int {
			op, err := NewIndexLookupProject(indexes, keys, project)
			if err != nil {
				t.Fatal(err)
			}
			Drive(ctx, op, 64)
			return len(op.Rows())
		}},
		{"PKLookupProject", 2, func() int {
			op, err := NewPKLookupProject(ix1, 3, residualCols, residual, project)
			if err != nil {
				t.Fatal(err)
			}
			Drive(ctx, op, 64)
			return len(op.Rows())
		}},
	} {
		if c.run() == 0 {
			t.Fatalf("%s matched no rows; the measurement needs matches", c.name)
		}
		run := func() { c.run() }
		allocs.Check(t, c.name+" per execution", testing.AllocsPerRun(100, run), c.ceiling, run)
	}
}
