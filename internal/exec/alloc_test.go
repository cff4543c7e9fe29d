package exec

import (
	"testing"

	"cachepart/internal/column"
)

// These tests are the kernels' share of the alloc budget (DESIGN.md
// §12, beside internal/cachesim/alloc_test.go): once a warm-up Step
// has started the scan's helper and sized each kernel's scratch, a
// Step allocates nothing. Aggregation tables are pre-sized, so the
// amortised AggTable.grow stays out of the measurement. SortAggLocal
// is the one //perf:hot kernel left out: it does not hold 0
// (FINDINGS/lint-mutations.md).

// zeroAllocSteps fails when a Step of budget rows allocates in steady
// state. The kernel must not finish within the warm-up and the
// measured runs.
func zeroAllocSteps(t *testing.T, name string, ctx *Ctx, k Kernel, budget int) {
	t.Helper()
	k.Step(ctx, budget)
	allocs := testing.AllocsPerRun(100, func() {
		if _, done := k.Step(ctx, budget); done {
			t.Fatalf("%s ran out before the measurement did", name)
		}
	})
	if allocs != 0 {
		t.Errorf("%s.Step allocates %.1f per slice in steady state, want 0", name, allocs)
	}
}

// TestColumnScanStepZeroAllocs: the channel, closure and goroutine of
// the functional half are paid once per execution in start; every
// slice after the first allocates nothing.
func TestColumnScanStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 100_000, 1, 1_000_000, 5)
	scan, err := NewColumnScan(col, 0, col.Rows(), 500_000)
	if err != nil {
		t.Fatal(err)
	}
	zeroAllocSteps(t, "ColumnScan", ctx, scan, 512)
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
	zeroAllocSteps(t, "AggLocal", ctx, agg, 512)
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
	zeroAllocSteps(t, "AggMerge", ctx, merge, 128)
	if merge.Global.Grows() != 0 {
		t.Errorf("the global table grew %d times; it was meant to be pre-sized", merge.Global.Grows())
	}
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
	zeroAllocSteps(t, "WideAggLocal", ctx, agg, 512)
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
	zeroAllocSteps(t, "JoinBuild", ctx, build, 512)
	probe, err := NewJoinProbe(keyCol, 0, rows, bv)
	if err != nil {
		t.Fatal(err)
	}
	zeroAllocSteps(t, "JoinProbe", ctx, probe, 512)
}

// TestLookupExecutionZeroAllocs: the OLTP operators run one short
// execution per query, so their steady state is a repeated execution —
// Reset, then Steps to done — once the first has sized the candidate,
// row and batch scratch.
func TestLookupExecutionZeroAllocs(t *testing.T) {
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

	project, err := NewIndexLookupProject([]*column.InvertedIndex{ix1, ix2}, []int64{3, 7}, []*column.Column{pc})
	if err != nil {
		t.Fatal(err)
	}
	projectKeys := []int64{3, 7}
	pk, err := NewPKLookupProject(ix1, 3, []*column.Column{c2}, []int64{7}, []*column.Column{pc})
	if err != nil {
		t.Fatal(err)
	}
	residual := []int64{7}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"IndexLookupProject", func() { project.Reset(projectKeys); Drive(ctx, project, 64) }},
		{"PKLookupProject", func() { pk.Reset(3, residual); Drive(ctx, pk, 64) }},
	} {
		c.run()
		if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
			t.Errorf("%s allocates %.1f per execution in steady state, want 0", c.name, allocs)
		}
	}
	if len(project.Rows()) == 0 || len(pk.Rows()) == 0 {
		t.Fatalf("the lookups matched %d and %d rows; the measurement needs matches", len(project.Rows()), len(pk.Rows()))
	}
}
