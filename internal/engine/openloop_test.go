package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cachepart/internal/allocs"
	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/exec"
)

// sliceFeed replays a fixed submission list in order, parking until
// each release tick — the minimal deterministic Feed.
type sliceFeed struct {
	subs []Submission
	next int
}

func (f *sliceFeed) Next(group int, now int64) (Submission, bool, int64) {
	if f.next >= len(f.subs) {
		return Submission{}, false, -1
	}
	s := f.subs[f.next]
	if s.Release > now {
		return Submission{}, false, s.Release
	}
	f.next++
	return s, true, 0
}

func testSubs(n int, gap int64, rows int) []Submission {
	subs := make([]Submission, n)
	for i := range subs {
		subs[i] = Submission{
			Query:   &countQuery{name: "ol-count", rowsPerExec: rows, cuid: core.Sensitive},
			Rng:     rand.New(rand.NewSource(int64(i + 1))),
			Release: int64(i) * gap,
			Tag:     int64(i),
		}
	}
	return subs
}

// TestStreamQueryStamps pins the per-execution record: every execution
// carries a positive (Start, Done) stamp on the run's virtual clock,
// and back-to-back executions tile the stream's timeline.
func TestStreamQueryStamps(t *testing.T) {
	a := &countQuery{name: "a", rowsPerExec: 2000, cuid: core.Sensitive}
	b := &countQuery{name: "b", rowsPerExec: 500, cuid: core.Sensitive}
	opts := RunOptions{Duration: 0.0005, Seed: 1}
	res, err := testEngine(t, true).Run([]StreamSpec{
		{Query: a, Cores: []int{0, 1}},
		{Query: b, Cores: []int{2}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if len(r.Queries) == 0 {
			t.Fatalf("%s: no executions completed", r.Name)
		}
		var total int64
		for i, q := range r.Queries {
			if q.Done <= q.Start {
				t.Errorf("%s: stamp %d not positive: %+v", r.Name, i, q)
			}
			// Closed-loop streams run back to back: each execution
			// starts at the previous one's completion barrier.
			if i > 0 && q.Start != r.Queries[i-1].Done {
				t.Errorf("%s: stamp %d starts at %d, previous done %d", r.Name, i, q.Start, r.Queries[i-1].Done)
			}
			total += q.Ticks()
		}
		if span := r.Queries[len(r.Queries)-1].Done - r.Queries[0].Start; span != total {
			t.Errorf("%s: stream total %d ticks != sum of query stamps %d", r.Name, span, total)
		}
	}
}

func TestRunOpenLoopBasic(t *testing.T) {
	e := testEngine(t, true)
	subs := testSubs(24, 2000, 800)
	res, err := e.RunOpenLoop([][]int{{0, 1}, {2, 3}}, &sliceFeed{subs: subs}, OpenLoopOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != len(subs) {
		t.Fatalf("completed %d of %d submissions", len(res.Completions), len(subs))
	}
	seen := make(map[int64]bool)
	for i, c := range res.Completions {
		if seen[c.Tag] {
			t.Errorf("tag %d completed twice", c.Tag)
		}
		seen[c.Tag] = true
		if c.Start < c.Release || c.Done <= c.Start {
			t.Errorf("completion %d out of order: %+v", i, c)
		}
		if i > 0 && c.Done < res.Completions[i-1].Done {
			t.Errorf("completions not sorted by Done at %d", i)
		}
		if c.Rows != 800 {
			t.Errorf("completion %d counted %d rows, want 800", i, c.Rows)
		}
	}
	var done int64
	for gi, g := range res.Groups {
		done += g.Completed
		if g.BusyTicks <= 0 || g.BusyTicks > g.EndTick {
			t.Errorf("group %d busy %d of %d ticks", gi, g.BusyTicks, g.EndTick)
		}
	}
	if done != int64(len(subs)) {
		t.Errorf("groups report %d completions, want %d", done, len(subs))
	}
}

// TestRunOpenLoopDeterminism is TestRunBitIdentical's open-loop
// counterpart: identical feeds give identical results and machine
// counters, run to run and with the scheduler held to one P. Every
// other submission is a column scan, whose count runs on a goroutine
// beside the simulation; the rest draw their rows from a submission
// rng seeded from the feed's seed, so seed 43 must differ from seed 42,
// whose result is pinned in a golden file.
func TestRunOpenLoopDeterminism(t *testing.T) {
	type outcome struct {
		res   OpenLoopResult
		total cachesim.CoreStats
	}
	scan := newScanQuery(t, 20_000)
	run := func(seed int64) outcome {
		e := testEngine(t, true)
		subs := testSubs(16, 3000, 600)
		for i := range subs {
			subs[i].Rng = rand.New(rand.NewSource(seed + int64(i)))
			subs[i].Query = &countQuery{name: "ol-count", rowsPerExec: 600, jitter: 600, cuid: core.Sensitive}
			if i%2 == 0 {
				subs[i].Query = scan
			}
		}
		res, err := e.RunOpenLoop([][]int{{0, 1}, {2, 3}}, &sliceFeed{subs: subs}, OpenLoopOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Completions) != len(subs) {
			t.Fatalf("completed %d of %d submissions", len(res.Completions), len(subs))
		}
		return outcome{*res, e.Machine().TotalStats()}
	}
	first := run(42)
	if second := run(42); !reflect.DeepEqual(first, second) {
		t.Error("open-loop runs with identical feeds differ")
	}
	onOneP(func() {
		if oneP := run(42); !reflect.DeepEqual(first, oneP) {
			t.Error("open-loop runs with identical feeds differ between the default scheduler and one P")
		}
	})
	if other := run(43); reflect.DeepEqual(first, other) {
		t.Error("seed 42 and 43 produced identical results; the submission rng does not reach the plan")
	}
	var groups []string
	for i, g := range first.res.Groups {
		groups = append(groups, fmt.Sprintf("group %d completed=%d busy=%d end=%d", i, g.Completed, g.BusyTicks, g.EndTick))
	}
	checkGolden(t, "run_open_loop_determinism", goldenText(groups, first))
}

func TestRunOpenLoopValidates(t *testing.T) {
	e := testEngine(t, true)
	if _, err := e.RunOpenLoop(nil, &sliceFeed{}, OpenLoopOptions{}); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := e.RunOpenLoop([][]int{{0}, {0}}, &sliceFeed{}, OpenLoopOptions{}); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := e.RunOpenLoop([][]int{{0}}, nil, OpenLoopOptions{}); err == nil {
		t.Error("nil feed accepted")
	}
}

// coreLogKernel is a countKernel that appends the core of every Step to
// a shared log: the order in which the loop served the cores.
type coreLogKernel struct {
	countKernel
	log *[]int
}

func (k *coreLogKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	*k.log = append(*k.log, ctx.Core)
	return k.countKernel.Step(ctx, budget)
}

type coreLogQuery struct {
	rows int
	log  *[]int
}

func (q *coreLogQuery) Name() string { return "core-log" }

func (q *coreLogQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	ks := make([]exec.Kernel, 0, cores)
	for _, p := range PartitionRows(q.rows, cores) {
		ks = append(ks, &coreLogKernel{countKernel{remaining: p[1] - p[0]}, q.log})
	}
	return []Phase{{Name: "count", CUID: core.Sensitive, Kernels: ks, CountRows: true}}, nil
}

// groupLogFeed is a sliceFeed that records which group each call to
// Next came from.
type groupLogFeed struct {
	sliceFeed
	asked []int
}

func (f *groupLogFeed) Next(group int, now int64) (Submission, bool, int64) {
	f.asked = append(f.asked, group)
	return f.sliceFeed.Next(group, now)
}

// TestRunOpenLoopTieBreakFollowsGroupOrder pins who goes first at equal
// clocks: the group listed first, slot by slot, not the lowest core id.
// Every caller in the tree lists its groups in ascending core order,
// where the two rules agree; here the groups are listed descending. The
// submissions come in simultaneous pairs of compute-only queries with
// partitioning off, so the machine is symmetric under swapping the two
// groups' cores and the run must be the mirror image of the ascending
// one, step for step.
func TestRunOpenLoopTieBreakFollowsGroupOrder(t *testing.T) {
	run := func(groups [][]int) (steps, asked []int) {
		t.Helper()
		e := testEngine(t, false)
		subs := make([]Submission, 12)
		for i := range subs {
			subs[i] = Submission{
				Query:   &coreLogQuery{rows: 700, log: &steps},
				Release: int64(i/2) * 40_000,
				Tag:     int64(i),
			}
		}
		feed := &groupLogFeed{sliceFeed: sliceFeed{subs: subs}}
		res, err := e.RunOpenLoop(groups, feed, OpenLoopOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Completions) != len(subs) {
			t.Fatalf("completed %d of %d submissions", len(res.Completions), len(subs))
		}
		return steps, feed.asked
	}
	desc, descAsked := run([][]int{{2, 3}, {0, 1}})
	asc, ascAsked := run([][]int{{0, 1}, {2, 3}})

	if want := []int{2, 3, 0, 1}; !reflect.DeepEqual(desc[:4], want) {
		t.Errorf("first steps at clock 0 ran on cores %v, want %v (group order, then slot order)", desc[:4], want)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(descAsked[:2], want) {
		t.Errorf("feed first asked for groups %v, want %v", descAsked[:2], want)
	}
	if !reflect.DeepEqual(descAsked, ascAsked) {
		t.Errorf("feed was asked in a different group order once the cores were swapped:\n desc: %v\n  asc: %v", descAsked, ascAsked)
	}
	mirrored := make([]int, len(asc))
	for i, c := range asc {
		mirrored[i] = (c + 2) % 4
	}
	if !reflect.DeepEqual(desc, mirrored) {
		t.Errorf("descending-group run is not the mirror image of the ascending one (%d vs %d steps)", len(desc), len(asc))
	}
}

// TestRunOpenLoopRejectsBeforeReset: a call that fails validation has
// touched nothing — not the machine's clocks and counters, not the
// controller, not the mask-write tally — so the engine still holds the
// state of the run before it.
func TestRunOpenLoopRejectsBeforeReset(t *testing.T) {
	e := testEngine(t, true)
	if _, err := e.Run(chaosSpecs(), RunOptions{Duration: 1e-4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	type state struct {
		now    int64
		writes int
		total  cachesim.CoreStats
	}
	snapshot := func() state {
		return state{e.Machine().MaxNow(), e.MaskWrites(), e.Machine().TotalStats()}
	}
	before := snapshot()
	if before.now == 0 || before.writes == 0 {
		t.Fatalf("the run before left nothing to lose: %+v", before)
	}
	for _, bad := range []struct {
		name   string
		groups [][]int
		feed   Feed
	}{
		{"nil feed", [][]int{{0, 1}}, nil},
		{"overlapping groups", [][]int{{0, 1}, {1, 2}}, &sliceFeed{}},
	} {
		if _, err := e.RunOpenLoop(bad.groups, bad.feed, OpenLoopOptions{}); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
		if after := snapshot(); after != before {
			t.Errorf("%s: the rejected call changed the engine:\nbefore: %+v\n after: %+v", bad.name, before, after)
		}
	}
}

// fixedPhasesQuery hands out the same phases at every Plan, with the
// kernels rewound, so planning it allocates nothing.
type fixedPhasesQuery struct {
	rows    int
	kernels []*countKernel
	phases  []Phase
}

func (q *fixedPhasesQuery) Name() string { return "static-plan" }

func (q *fixedPhasesQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	if q.phases == nil {
		ks := make([]exec.Kernel, cores)
		q.kernels = make([]*countKernel, cores)
		for i := range ks {
			q.kernels[i] = &countKernel{}
			ks[i] = q.kernels[i]
		}
		q.phases = []Phase{{Name: "count", CUID: core.Sensitive, Kernels: ks, CountRows: true}}
	}
	for _, k := range q.kernels {
		k.remaining = q.rows
	}
	return q.phases, nil
}

// TestOpenLoopCycleAllocBudget: a group's state lives for the run, so a
// steady-state dispatch → completion cycle allocates the phase's slot
// list and nothing else of the engine's — in particular not a stream
// per submission, as it did while the open loop kept its own group
// type beside the closed loop's stream. Measured as the extra
// allocations of a run twice as long, which cancels the prologue; the
// completion list's doubling is the fraction over one.
func TestOpenLoopCycleAllocBudget(t *testing.T) {
	e := testEngine(t, false)
	q := &fixedPhasesQuery{rows: 40}
	feed := &sliceFeed{}
	allocsFor := func(n int) float64 {
		feed.subs = make([]Submission, n)
		for i := range feed.subs {
			feed.subs[i] = Submission{Query: q, Release: int64(i) * 100, Tag: int64(i)}
		}
		return testing.AllocsPerRun(3, func() {
			feed.next = 0
			if _, err := e.RunOpenLoop([][]int{{0, 1}}, feed, OpenLoopOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 512
	perCycle := (allocsFor(2*n) - allocsFor(n)) / n
	allocs.Check(t, "a dispatch → completion cycle (the slot list only)", perCycle, 1.1, func() { allocsFor(2 * n) })
}
