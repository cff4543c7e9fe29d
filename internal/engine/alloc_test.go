package engine

import (
	"math/rand"
	"testing"

	"cachepart/internal/allocs"
	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// The engine loop's share of the alloc budget (DESIGN.md §11, beside
// the kernels' in internal/exec and the per-access paths' in
// internal/cachesim): for each workload shape, the allocations a run
// twice as long makes beyond the shorter one, which cancels the
// prologue and leaves the executions, slices and completions of the
// extra window. Each budget is the highest count the code made when it
// was set, over 39 runs at -cpu 1,2,4 and under -race, not a fitted
// bound. The extra window holds over ten thousand rows and thousands
// of loop iterations, so one allocation per row, per access or per
// slice breaks it many times over, and the failure names the lines
// (internal/allocs).

// aggQuery plans exec.AggLocal over the rows split across the cores,
// then one exec.AggMerge per core into a global table — the kernels of
// the paper's Query 2. Its tables are sized once and cleared per
// execution, so one aggQuery serves one stream at a time.
type aggQuery struct {
	space  *memory.Space
	g, v   *column.Column
	groups int
	locals []*exec.AggTable
	global *exec.AggTable
}

func newAggQuery(t *testing.T, rows, groups int) *aggQuery {
	t.Helper()
	space := memory.NewSpace()
	rng := rand.New(rand.NewSource(int64(rows)))
	gv, vv := make([]int64, rows), make([]int64, rows)
	for i := range gv {
		gv[i], vv[i] = rng.Int63n(int64(groups)), 1+rng.Int63n(1<<14)
	}
	g, err := column.EncodeDense(space, "agg.g", gv, 0, int64(groups-1), column.DefaultEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := column.EncodeDense(space, "agg.v", vv, 1, 1<<14, column.DefaultEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	return &aggQuery{space: space, g: g, v: v, groups: groups}
}

func (q *aggQuery) Name() string { return "agg" }

func (q *aggQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	if len(q.locals) != cores {
		q.locals = make([]*exec.AggTable, cores)
		for i := range q.locals {
			q.locals[i] = exec.NewAggTable(q.space, "agg.local", q.groups)
		}
		q.global = exec.NewAggTable(q.space, "agg.global", q.groups)
	}
	q.global.Clear()
	parts := PartitionRows(q.g.Rows(), cores)
	locals := make([]exec.Kernel, len(parts))
	merges := make([]exec.Kernel, len(parts))
	for i, p := range parts {
		q.locals[i].Clear()
		k, err := exec.NewAggLocal(q.g, q.v, p[0], p[1], q.locals[i])
		if err != nil {
			return nil, err
		}
		locals[i] = k
		merges[i] = exec.NewAggMerge([]*exec.AggTable{q.locals[i]}, q.global)
	}
	return []Phase{
		{Name: "agg-local", CUID: core.Sensitive, Kernels: locals, CountRows: true},
		{Name: "agg-merge", CUID: core.Sensitive, Kernels: merges},
	}, nil
}

// loopBudget measures run at scale 1 and 2 and checks the difference
// against budget; a failure profiles one more run at scale 2. It
// measures on one P, after a warm-up that leaves dead count goroutines
// behind to reuse. The runtime still allocates a goroutine now and
// then, when preemption leaves more count goroutines alive at once
// than the warm-up did, so a count over budget is measured twice more
// before it fails; one allocation per row or slice fails all three.
func loopBudget(t *testing.T, what string, budget float64, run func(scale int)) {
	t.Helper()
	at := func(scale int) float64 { return testing.AllocsPerRun(4, func() { run(scale) }) }
	var got float64
	onOneP(func() {
		run(2)
		for try := 0; try < 3; try++ {
			if got = at(2) - at(1); got <= budget {
				return
			}
		}
	})
	allocs.Check(t, what, got, budget, func() { run(2) })
}

// closedLoopBudget runs the specs for scale × 2e-4 simulated seconds.
func closedLoopBudget(t *testing.T, what string, budget float64, specs []StreamSpec) {
	t.Helper()
	e := testEngine(t, true)
	loopBudget(t, what, budget, func(scale int) {
		if _, err := e.Run(specs, RunOptions{Duration: float64(scale) * 2e-4, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScanLoopAllocBudget(t *testing.T) {
	closedLoopBudget(t, "a scan's extra window", 449, []StreamSpec{
		{Query: newScanQuery(t, 60_000), Cores: []int{0, 1, 2, 3}},
	})
}

func TestAggLoopAllocBudget(t *testing.T) {
	closedLoopBudget(t, "an aggregation's extra window", 127, []StreamSpec{
		{Query: newAggQuery(t, 2_000, 400), Cores: []int{0, 1, 2, 3}},
	})
}

func TestCoRunLoopAllocBudget(t *testing.T) {
	closedLoopBudget(t, "a co-run's extra window", 512, []StreamSpec{
		{Query: newScanQuery(t, 60_000), Cores: []int{0, 1, 2, 3}},
		{Query: newAggQuery(t, 2_000, 400), Cores: []int{4, 5, 6, 7}},
	})
}

// TestServeLoopAllocBudget is one open-loop serving point: column scans
// released at a fixed gap onto two groups, twice as many in the longer
// run.
func TestServeLoopAllocBudget(t *testing.T) {
	e := testEngine(t, true)
	scan := newScanQuery(t, 20_000)
	rng := rand.New(rand.NewSource(1))
	subs := make([]Submission, 128)
	for i := range subs {
		subs[i] = Submission{Query: scan, Rng: rng, Release: int64(i) * 20_000, Tag: int64(i)}
	}
	feed := &sliceFeed{}
	loopBudget(t, "a serving point's extra submissions", 644, func(scale int) {
		feed.subs, feed.next = subs[:64*scale], 0
		if _, err := e.RunOpenLoop([][]int{{0, 1}, {2, 3}}, feed, OpenLoopOptions{}); err != nil {
			t.Fatal(err)
		}
	})
}
