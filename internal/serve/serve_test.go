package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 8
	m, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(m, core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// computeKernel burns a fixed compute cost per row.
type computeKernel struct{ remaining int }

func (k *computeKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	n := budget
	if n > k.remaining {
		n = k.remaining
	}
	for i := 0; i < n; i++ {
		ctx.Compute(10, 4)
	}
	k.remaining -= n
	return n, k.remaining == 0
}

// expQuery draws an exponentially distributed row count per execution
// from the submission rng — an M-shaped service time for queueing
// tests. It is stateless between executions, so one instance may alias
// across groups.
type expQuery struct {
	name     string
	meanRows float64
}

func (q *expQuery) Name() string { return q.name }

func (q *expQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	rows := int(rng.ExpFloat64() * q.meanRows)
	if rows < 1 {
		rows = 1
	}
	parts := engine.PartitionRows(rows, cores)
	ks := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		ks = append(ks, &computeKernel{remaining: p[1] - p[0]})
	}
	return []engine.Phase{{Name: "compute", CUID: core.Sensitive, Kernels: ks, CountRows: true}}, nil
}

func alias(q engine.Query, groups int) []engine.Query {
	out := make([]engine.Query, groups)
	for i := range out {
		out[i] = q
	}
	return out
}

// testConfig is a small two-tenant mixed-process configuration.
func testConfig(seed int64, groups int) Config {
	return Config{
		Seed:    seed,
		Horizon: 2e-5,
		Tenants: []Tenant{
			{
				Name:    "oltp",
				Process: Process{Kind: ProcPoisson, Rate: 3e6},
				Mix: []Workload{
					{Name: "small", Weight: 3, Instances: alias(&expQuery{name: "small", meanRows: 40}, groups)},
					{Name: "medium", Weight: 1, Instances: alias(&expQuery{name: "medium", meanRows: 120}, groups)},
				},
			},
			{
				Name: "analytics",
				Process: Process{Kind: ProcDiurnal, Rate: 1e6,
					Periods: []Period{{Seconds: 1e-5, Amplitude: 0.6}, {Seconds: 4e-5, Amplitude: 0.3, Phase: 1.0}}},
				Mix: []Workload{
					{Name: "agg", Weight: 1, Instances: alias(&expQuery{name: "agg", meanRows: 300}, groups)},
				},
			},
		},
	}
}

func TestGenArrivalsBitIdentity(t *testing.T) {
	m := testEngine(t).Machine()
	for _, seed := range []int64{1, 7, 42} {
		a, err := GenArrivals(m, testConfig(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenArrivals(m, testConfig(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: identical configs generated different traces", seed)
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		for i := range a {
			if a[i].Seq != int64(i) {
				t.Fatalf("seed %d: arrival %d has seq %d", seed, i, a[i].Seq)
			}
			if i > 0 && a[i].Tick < a[i-1].Tick {
				t.Fatalf("seed %d: trace not time-ordered at %d", seed, i)
			}
		}
	}
	a, _ := GenArrivals(m, testConfig(1, 2))
	b, _ := GenArrivals(m, testConfig(2, 2))
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds generated identical traces")
	}
}

// checkGolden compares a report with testdata/golden/<name>.txt, a
// result recorded in an earlier process: it fails on what every run of
// one process shares, which a rerun cannot see, such as a seed
// derivation shifted by one. The file holds a few counts and an FNV-1a
// digest of the whole report in %+v form; a deliberate change rewrites
// it from the text the failure prints.
func checkGolden(t *testing.T, name string, r *Report) {
	t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	got := fmt.Sprintf("arrivals=%d admitted=%d completed=%d retries=%d p99=%d\ndigest %016x\n",
		r.Arrivals, r.Admitted, r.Completed, r.Retries, r.P99, h.Sum64())
	path := filepath.Join("testdata", "golden", name+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s\n want:\n%s  got:\n%s", name, path, want, got)
	}
}

// TestRunBitIdentity pins the subsystem contract: same seed ⇒ identical
// arrival trace, admission decisions and percentile report; different
// seeds differ; and seed 3's report is the recorded one.
func TestRunBitIdentity(t *testing.T) {
	run := func(seed int64) *Report {
		e := testEngine(t)
		r, err := Run(e, [][]int{{0, 1}, {2, 3}}, testConfig(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, seed := range []int64{3, 11} {
		a, b := run(seed), run(seed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: two runs produced different reports", seed)
		}
		if a.Completed == 0 {
			t.Fatalf("seed %d: nothing completed", seed)
		}
		if a.Arrivals != a.Admitted+a.Dropped {
			t.Errorf("seed %d: %d arrivals != %d admitted + %d dropped", seed, a.Arrivals, a.Admitted, a.Dropped)
		}
		if a.Completed != a.Admitted {
			t.Errorf("seed %d: %d admitted but %d completed (drain lost queries)", seed, a.Admitted, a.Completed)
		}
	}
	if reflect.DeepEqual(run(3), run(11)) {
		t.Error("different seeds produced identical reports")
	}
	checkGolden(t, "run_seed3", run(3))
}

// TestMM1MeanWait checks the Poisson generator against queueing
// theory: one tenant, one single-core group, exponential service ⇒
// M/M/1, whose mean queueing delay is ρ/(1−ρ)·E[S]. The empirical
// mean wait must land within tolerance of the prediction computed
// from the measured service time and arrival rate.
func TestMM1MeanWait(t *testing.T) {
	e := testEngine(t)
	m := e.Machine()
	ticksPerSec := float64(m.Ticks(1))
	// One row costs Compute(10 cycles) = 160 ticks, so the exponential
	// 50-row mean gives E[S] ≈ 8000 ticks; offer ρ≈0.5 of that.
	estService := 50.0 * 10.0 * cachesim.TicksPerCycle
	rate := 0.5 / estService * ticksPerSec // arrivals per second for ρ≈0.5
	horizon := 3000.0 * estService * 2.0 / ticksPerSec

	cfg := Config{
		Seed:    17,
		Horizon: horizon,
		Tenants: []Tenant{{
			Name:     "mm1",
			Process:  Process{Kind: ProcPoisson, Rate: rate},
			QueueCap: 1 << 16,
			Mix:      []Workload{{Name: "exp", Weight: 1, Instances: alias(&expQuery{name: "exp", meanRows: 50}, 1)}},
		}},
	}
	r, err := Run(e, [][]int{{0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Tenants[0]
	if tr.Dropped != 0 {
		t.Fatalf("M/M/1 run dropped %d queries; raise the queue cap", tr.Dropped)
	}
	if tr.Completed < 1000 {
		t.Fatalf("only %d completions; too few for a mean-wait check", tr.Completed)
	}
	lambda := float64(tr.Arrivals) / float64(r.HorizonTicks) // per tick
	rho := lambda * tr.MeanService
	if rho < 0.3 || rho > 0.7 {
		t.Fatalf("utilisation %.2f outside the calibrated band", rho)
	}
	theory := rho / (1 - rho) * tr.MeanService
	if diff := math.Abs(tr.MeanWait-theory) / theory; diff > 0.35 {
		t.Errorf("mean wait %.0f ticks vs M/M/1 prediction %.0f (ρ=%.2f): off by %.0f%%",
			tr.MeanWait, theory, rho, diff*100)
	}
}

func TestAdmissionDrops(t *testing.T) {
	e := testEngine(t)
	cfg := testConfig(21, 1)
	cfg.Tenants[0].QueueCap = 1
	cfg.Tenants[1].QueueCap = 1
	r, err := Run(e, [][]int{{0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped == 0 {
		t.Error("cap-1 queues under 3e6 qps dropped nothing")
	}
	for _, tr := range r.Tenants {
		if tr.Arrivals != tr.Admitted+tr.Dropped {
			t.Errorf("tenant %s: %d arrivals != %d admitted + %d dropped", tr.Name, tr.Arrivals, tr.Admitted, tr.Dropped)
		}
		if tr.PeakDepth > 1 {
			t.Errorf("tenant %s: peak depth %d exceeds cap 1", tr.Name, tr.PeakDepth)
		}
	}
}

// TestPickCLOSAffinity pins the dispatcher's order: a group keeps
// dispatching the class it last dispatched while the globally oldest
// head is within agingTicks, takes the globally oldest head past the
// bound, and takes the oldest head when it has no history or no head
// of its class is queued. Plain FIFO fails the affinity rows.
func TestPickCLOSAffinity(t *testing.T) {
	const classA, classB, classC = 1, 2, 3
	tenant := func(class int) Tenant { return Tenant{Mix: []Workload{{Class: class}}} }
	f := &feed{
		tenants: []Tenant{tenant(classA), tenant(classB), tenant(classB)},
		queues: [][]Arrival{
			{{Tenant: 0, Tick: 100}},
			{{Tenant: 1, Tick: 150}},
			{{Tenant: 2, Tick: 120}, {Tenant: 2, Tick: 130}},
		},
		heads:      make([]int, 3),
		lastClass:  []int{-1, classA, classB, classC},
		agingTicks: 1000,
	}
	for _, c := range []struct {
		name       string
		group      int
		now        int64
		wantTenant int
	}{
		{"no history", 0, 500, 0},
		{"last class holds the oldest head", 1, 500, 0},
		{"last class within the aging bound", 2, 500, 2},
		{"last class at the edge of the bound", 2, 1099, 2},
		{"aging bound reached", 2, 1100, 0},
		{"no head of the last class", 3, 500, 0},
	} {
		if got := f.pick(c.group, c.now); got != c.wantTenant {
			t.Errorf("%s: group %d at tick %d picked tenant %d, want %d",
				c.name, c.group, c.now, got, c.wantTenant)
		}
	}
	for ti := range f.heads {
		f.heads[ti] = len(f.queues[ti])
	}
	if got := f.pick(2, 500); got != -1 {
		t.Errorf("empty queues: picked tenant %d, want -1", got)
	}
}

// TestGroupRngReseedMatchesFresh: every dispatch to a group hands out
// the group's one rand.Rand, reseeded with the arrival's querySeed.
// After a varying number of draws from the previous dispatch it must
// draw what a rand.Rand built fresh from that seed draws.
func TestGroupRngReseedMatchesFresh(t *testing.T) {
	e := testEngine(t)
	cfg := overloadConfig(e, 7, 1, 1.0)
	arrivals := make([]Arrival, 6)
	for i := range arrivals {
		arrivals[i] = Arrival{Seq: int64(i), Tick: int64(i)}
	}
	f := newFeed(&cfg, e.Machine(), arrivals, []int{2})
	var group *rand.Rand
	for i, a := range arrivals {
		sub, ok, _ := f.Next(0, a.Tick)
		if !ok || sub.Tag != a.Seq {
			t.Fatalf("dispatch %d: ok %v tag %d, want arrival %d", i, ok, sub.Tag, a.Seq)
		}
		if group != nil && sub.Rng != group {
			t.Fatalf("dispatch %d built a new rand.Rand", i)
		}
		group = sub.Rng
		fresh := rand.New(rand.NewSource(querySeed(cfg.Seed, a)))
		for k := 0; k <= i; k++ {
			if got, want := sub.Rng.Int63(), fresh.Int63(); got != want {
				t.Fatalf("dispatch %d, draw %d: %d, a fresh rand.Rand draws %d", i, k, got, want)
			}
		}
	}
}
