package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cachepart/internal/core"
	"cachepart/internal/exec"
	"cachepart/internal/fault"
)

// chaosEngine wraps a fresh test engine's control plane in the fault
// injector.
func chaosEngine(t *testing.T, cfg fault.Config) (*Engine, *fault.Plane) {
	t.Helper()
	e := testEngine(t, true)
	pl, err := fault.Wrap(e.ControlPlane(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetControlPlane(pl); err != nil {
		t.Fatal(err)
	}
	return e, pl
}

func chaosSpecs() []StreamSpec {
	return []StreamSpec{
		{Query: &countQuery{name: "A", rowsPerExec: 600, cuid: core.Polluting}, Cores: []int{0, 1, 2, 3}},
		{Query: &countQuery{name: "B", rowsPerExec: 400, cuid: core.Sensitive}, Cores: []int{4, 5, 6, 7}},
	}
}

// coarseQuery plans its query's phases with every kernel wrapped in a
// coarseKernel.
type coarseQuery struct{ Query }

func (q coarseQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	phases, err := q.Query.Plan(cores, rng)
	for i := range phases {
		for k, kernel := range phases[i].Kernels {
			phases[i].Kernels[k] = &coarseKernel{Kernel: kernel}
		}
	}
	return phases, err
}

// coarseKernel ignores the engine's row budget and sizes its own
// slices exactly as the engine does, but to coarseSliceTicks: the
// slices the engine would run if its slice bound were that long.
type coarseKernel struct {
	exec.Kernel
	slot kernelSlot
}

const coarseSliceTicks = 1 << 20

func (k *coarseKernel) Step(ctx *exec.Ctx, _ int) (int, bool) {
	before := ctx.M.Now(ctx.Core)
	rows, done := k.Kernel.Step(ctx, k.slot.budgetFor(coarseSliceTicks, quantumRows))
	k.slot.observe(rows, ctx.M.Now(ctx.Core)-before)
	return rows, done
}

// TestRunBitIdenticalChaos extends the reproducibility contract of
// TestRunBitIdentical to fault-injected runs: with the same run seed
// AND the same fault seed, two runs — injections, retries, backoff
// cycles, degradations and all — must be bit-for-bit identical.
func TestRunBitIdenticalChaos(t *testing.T) {
	run := func(runSeed, faultSeed int64) []StreamResult {
		t.Helper()
		e, _ := chaosEngine(t, fault.Uniform(0.2, faultSeed))
		res, err := e.Run(chaosSpecs(), RunOptions{Duration: 1e-4, Seed: runSeed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run(42, 7)
	second := run(42, 7)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same-seed chaos runs diverged:\n first: %+v\nsecond: %+v", first, second)
	}

	// Not only equal to itself but equal to what it was before the run
	// loops were merged (PR 22). Every placement draws from the plane's
	// rng whether or not it writes, so which stream a fault lands on
	// depends on the order the streams' re-plans reach the plane. A
	// stream that finishes re-plans at once, before any other core
	// steps; a loop that parked it until its barrier tick was the
	// earliest event (as the open loop parks a group before asking its
	// feed) would let the other stream's re-plans overtake it. Slices
	// as long as an execution make that window wide enough to move
	// these numbers, which the engine's own slices do not; coarseQuery
	// runs the queries in such slices.
	e, pl := chaosEngine(t, fault.Uniform(0.2, 7))
	specs := chaosSpecs()
	for i := range specs {
		specs[i].Query = coarseQuery{specs[i].Query}
	}
	coarse, err := e.Run(specs, RunOptions{Duration: 1e-4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got := ""
	for _, r := range coarse {
		got += fmt.Sprintf("%s execs=%d rows=%d retries=%d degraded=%d last=%+v | ",
			r.Name, r.Executions, r.Rows, r.Retries, r.Degraded, r.Queries[len(r.Queries)-1])
	}
	got += fmt.Sprintf("%+v", pl.Stats())
	const want = "A execs=11 rows=6300 retries=24 degraded=0 last={Start:2800000 Done:3528000} | " +
		"B execs=140 rows=55700 retries=12 degraded=556 last={Start:3504000 Done:3520000} | " +
		"{Injected:593 PersistentTrips:1 MonFaults:0}"
	if got != want {
		t.Errorf("coarse-slice chaos run moved:\n got: %s\nwant: %s", got, want)
	}
	// The fault seed must steer the run: injections cost retry cycles
	// and degradations, so a different schedule shows up in the result.
	if other := run(42, 8); reflect.DeepEqual(first, other) {
		t.Logf("fault seeds 7 and 8 produced identical results; schedule may be degenerate")
	}
}

// TestRunSurvivesFullFaultRate is the robustness contract at its
// extreme: with every control-plane write failing, the run still
// completes without error and still executes queries — isolation is
// lost (streams degrade toward the root group), not correctness.
func TestRunSurvivesFullFaultRate(t *testing.T) {
	e, pl := chaosEngine(t, fault.Config{
		Seed:               3,
		WriteSchemata:      1,
		MoveTask:           1,
		MakeGroup:          1,
		Schedule:           1,
		MonUnavailable:     1,
		PersistentFraction: 0.5,
	})
	res, err := e.Run(chaosSpecs(), RunOptions{Duration: 1e-4, Seed: 1})
	if err != nil {
		t.Fatalf("run errored under full fault rate: %v", err)
	}
	var execs, degraded int64
	for _, r := range res {
		execs += r.Executions
		degraded += r.Degraded
	}
	if execs == 0 {
		t.Error("no executions completed under full fault rate")
	}
	if degraded == 0 {
		t.Error("full fault rate reported no degradations")
	}
	if pl.Stats().Injected == 0 {
		t.Error("injector reports zero faults at rate 1")
	}
}

// TestRetryRecoversTransientFaults checks the other end: with purely
// transient faults at a rate the retry limit covers, the engine absorbs
// every failure through cycle-domain backoff — retries counted, no
// stream degraded.
func TestRetryRecoversTransientFaults(t *testing.T) {
	e, _ := chaosEngine(t, fault.Config{
		Seed:          11,
		WriteSchemata: 0.05,
		MoveTask:      0.05,
		MakeGroup:     0.05,
		// PersistentFraction 0: every fault is retryable.
	})
	res, err := e.Run(chaosSpecs(), RunOptions{Duration: 1e-4, Seed: 1})
	if err != nil {
		t.Fatalf("run errored on transient-only faults: %v", err)
	}
	var retries, degraded int64
	for _, r := range res {
		retries += r.Retries
		degraded += r.Degraded
	}
	if retries == 0 {
		t.Error("no retries recorded at fault rate 0.05")
	}
	if degraded != 0 {
		t.Errorf("%d degradations despite transient-only faults at rate 0.05 and retry limit %d", degraded, DefaultRetryLimit)
	}
}

// TestRunErrorPathUnwindsCleanly covers the mid-run failure path: a
// stream whose replan fails aborts the run with one error, and the
// engine remains usable — a subsequent clean run on the same engine
// matches a fresh engine bit for bit.
func TestRunErrorPathUnwindsCleanly(t *testing.T) {
	e := testEngine(t, true)
	_, err := e.Run([]StreamSpec{
		{Query: &failingQuery{ok: 2}, Cores: []int{0, 1}},
		{Query: &countQuery{name: "B", rowsPerExec: 400, cuid: core.Sensitive}, Cores: []int{2, 3}},
	}, RunOptions{Duration: 0.01, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "synthetic planning failure") {
		t.Fatalf("mid-run failure not surfaced: %v", err)
	}

	reused, err := e.Run(chaosSpecs(), RunOptions{Duration: 1e-4, Seed: 42})
	if err != nil {
		t.Fatalf("engine unusable after failed run: %v", err)
	}
	fresh, err := testEngine(t, true).Run(chaosSpecs(), RunOptions{Duration: 1e-4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("run after failure diverges from fresh engine:\nreused: %+v\n fresh: %+v", reused, fresh)
	}
}
