package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// stuckKernel reports no progress without finishing — a buggy operator
// the scheduler must detect rather than spin on.
type stuckKernel struct{}

func (stuckKernel) Step(ctx *exec.Ctx, budget int) (int, bool) { return 0, false }

type stuckQuery struct{}

func (stuckQuery) Name() string { return "stuck" }
func (stuckQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	return []Phase{{Name: "stuck", CUID: core.Sensitive, Kernels: []exec.Kernel{stuckKernel{}}}}, nil
}

func TestRunDetectsStuckKernel(t *testing.T) {
	e := testEngine(t, false)
	_, err := e.Run([]StreamSpec{{Query: stuckQuery{}, Cores: []int{0}}},
		RunOptions{Duration: 1e-4})
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Errorf("stuck kernel not detected: %v", err)
	}
}

// failingQuery plans successfully n times, then errors — e.g. a data
// set dropped mid-experiment.
type failingQuery struct {
	ok int
}

func (q *failingQuery) Name() string { return "failing" }
func (q *failingQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	if q.ok <= 0 {
		return nil, fmt.Errorf("synthetic planning failure")
	}
	q.ok--
	return []Phase{{
		Name:      "work",
		CUID:      core.Sensitive,
		Kernels:   []exec.Kernel{&countKernel{remaining: 50}},
		CountRows: true,
	}}, nil
}

func TestRunSurfacesReplanFailure(t *testing.T) {
	e := testEngine(t, false)
	_, err := e.Run([]StreamSpec{{Query: &failingQuery{ok: 2}, Cores: []int{0}}},
		RunOptions{Duration: 0.01})
	if err == nil || !strings.Contains(err.Error(), "synthetic planning failure") {
		t.Errorf("replan failure not surfaced: %v", err)
	}
}

// badPhaseQuery plans a phase with more kernels than cores.
type badPhaseQuery struct{}

func (badPhaseQuery) Name() string { return "bad" }
func (badPhaseQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	ks := make([]exec.Kernel, cores+1)
	for i := range ks {
		ks[i] = &countKernel{remaining: 1}
	}
	return []Phase{{Name: "oversubscribed", CUID: core.Sensitive, Kernels: ks}}, nil
}

func TestRunRejectsOversubscribedPhase(t *testing.T) {
	e := testEngine(t, false)
	_, err := e.Run([]StreamSpec{{Query: badPhaseQuery{}, Cores: []int{0, 1}}},
		RunOptions{Duration: 1e-4})
	if err == nil || !strings.Contains(err.Error(), "kernels for") {
		t.Errorf("oversubscribed phase not rejected: %v", err)
	}
}

type noPhasesQuery struct{}

func (noPhasesQuery) Name() string { return "empty" }
func (noPhasesQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	return nil, nil
}

type emptyPhaseQuery struct{}

func (emptyPhaseQuery) Name() string { return "emptyphase" }
func (emptyPhaseQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	return []Phase{{Name: "none", CUID: core.Sensitive}}, nil
}

func TestRunRejectsDegeneratePlans(t *testing.T) {
	e := testEngine(t, false)
	if _, err := e.Run([]StreamSpec{{Query: noPhasesQuery{}, Cores: []int{0}}},
		RunOptions{Duration: 1e-4}); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := e.Run([]StreamSpec{{Query: emptyPhaseQuery{}, Cores: []int{0}}},
		RunOptions{Duration: 1e-4}); err == nil {
		t.Error("kernel-less phase accepted")
	}
}

// TestCLOSExhaustion injects a machine with too few classes of
// service: programming a second distinct mask must fail cleanly.
func TestCLOSExhaustion(t *testing.T) {
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 2
	cfg.NumCLOS = 1 // root group only
	m, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways)
	pol.Enabled = true
	e, err := New(m, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.applyCUID(0, -1, core.Sensitive, core.Footprint{}); err != nil {
		t.Errorf("full mask should use the root group: %v", err)
	}
	if err := e.applyCUID(0, -1, core.Polluting, core.Footprint{}); err == nil {
		t.Error("expected CLOS exhaustion error")
	}
}

// prewarmQuery declares a region and then reads it; the engine must
// have made it resident before measurement.
type prewarmQuery struct {
	region memory.Region
	kernel *regionReader
}

type regionReader struct {
	region memory.Region
	off    uint64
	misses *uint64
}

func (r *regionReader) Step(ctx *exec.Ctx, budget int) (int, bool) {
	for i := 0; i < budget; i++ {
		if lvl := ctx.M.Access(ctx.Core, r.region.Addr(r.off), false); lvl == cachesim.DRAM {
			*r.misses++
		}
		r.off += memory.LineSize
		if r.off >= r.region.Size {
			return i + 1, true
		}
	}
	return budget, false
}

func (q *prewarmQuery) Name() string { return "prewarm" }
func (q *prewarmQuery) PrewarmRegions(cores int) []memory.Region {
	return []memory.Region{q.region}
}
func (q *prewarmQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	q.kernel = &regionReader{region: q.region, misses: new(uint64)}
	return []Phase{{Name: "read", CUID: core.Sensitive, Kernels: []exec.Kernel{q.kernel}, CountRows: true}}, nil
}

func TestPrewarmMakesRegionResident(t *testing.T) {
	e := testEngine(t, false)
	space := memory.NewSpace()
	// A region fitting comfortably in the scaled LLC.
	q := &prewarmQuery{region: space.Alloc("hot", e.Machine().Config().LLC.Size/4)}
	if _, err := e.Run([]StreamSpec{{Query: q, Cores: []int{0}}},
		RunOptions{Duration: 1e-4}); err != nil {
		t.Fatal(err)
	}
	if miss := *q.kernel.misses; miss > q.region.Lines()/20 {
		t.Errorf("prewarmed region still missed %d of %d lines", miss, q.region.Lines())
	}
}

// TestMaskWritesAcrossPhases verifies the engine programs masks only
// on CUID transitions during a run with alternating classes.
func TestMaskWritesAcrossPhases(t *testing.T) {
	e := testEngine(t, true)
	alternating := &alternatingQuery{}
	if _, err := e.Run([]StreamSpec{{Query: alternating, Cores: []int{0}}},
		RunOptions{Duration: 2e-4}); err != nil {
		t.Fatal(err)
	}
	if alternating.plans < 2 {
		t.Skip("window too short to replan") // defensive; duration should suffice
	}
	// Each execution has two phases with different masks -> roughly two
	// writes per execution, not per scheduling slice.
	writes := e.MaskWrites()
	if writes < 2 {
		t.Errorf("no mask writes recorded")
	}
	if writes > alternating.plans*2+2 {
		t.Errorf("mask writes %d exceed two per execution (%d executions)", writes, alternating.plans)
	}
}

func TestExecTicksAndPercentiles(t *testing.T) {
	e := testEngine(t, false)
	q := &countQuery{name: "q", rowsPerExec: 300, cuid: core.Sensitive}
	res, err := e.Run([]StreamSpec{{Query: q, Cores: []int{0, 1}}},
		RunOptions{Duration: 2e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if int64(len(r.Queries)) != r.Executions {
		t.Errorf("recorded %d latencies for %d executions", len(r.Queries), r.Executions)
	}
	if len(r.Queries) == 0 {
		t.Fatal("no executions completed")
	}
	for _, q := range r.Queries {
		if q.Ticks() <= 0 {
			t.Fatalf("non-positive latency %d", q.Ticks())
		}
	}
	p50, p99 := r.Percentile(0.5), r.Percentile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("percentiles p50=%d p99=%d", p50, p99)
	}
	var empty StreamResult
	if empty.Percentile(0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

type alternatingQuery struct {
	plans int
}

func (q *alternatingQuery) Name() string { return "alternating" }
func (q *alternatingQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	q.plans++
	return []Phase{
		{Name: "pollute", CUID: core.Polluting,
			Kernels: []exec.Kernel{&countKernel{remaining: 200}}, CountRows: true},
		{Name: "aggregate", CUID: core.Sensitive,
			Kernels: []exec.Kernel{&countKernel{remaining: 200}}},
	}, nil
}
