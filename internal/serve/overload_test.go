package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/fault"
	"cachepart/internal/memory"
)

// scanKernel streams line-strided reads over a shared region — the
// serving-test stand-in for the paper's polluting scan.
type scanKernel struct {
	region memory.Region
	off    uint64
	rows   int
}

func (k *scanKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	n := budget
	if n > k.rows {
		n = k.rows
	}
	for i := 0; i < n; i++ {
		ctx.Read(k.region.Addr(k.off))
		k.off += memory.LineSize
		if k.off >= k.region.Size {
			k.off = 0
		}
	}
	k.rows -= n
	return n, k.rows == 0
}

// streamQuery scans a region larger than the LLC, so its per-core DRAM
// rate classifies it as a polluter.
type streamQuery struct {
	name     string
	region   memory.Region
	meanRows float64
}

func (q *streamQuery) Name() string { return q.name }

func (q *streamQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	rows := int(rng.ExpFloat64() * q.meanRows)
	if rows < 1 {
		rows = 1
	}
	// Each execution scans a random window, so successive queries touch
	// fresh lines and the stream stays DRAM-bound instead of re-reading
	// a cached stretch.
	lines := q.region.Size / memory.LineSize
	start := uint64(rng.Int63n(int64(lines))) * memory.LineSize
	parts := engine.PartitionRows(rows, cores)
	ks := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		off := (start + uint64(p[0])*memory.LineSize) % q.region.Size
		ks = append(ks, &scanKernel{region: q.region, off: off, rows: p[1] - p[0]})
	}
	return []engine.Phase{{Name: "stream", CUID: core.Polluting, Kernels: ks, CountRows: true}}, nil
}

// overloadConfig is a two-tenant victim/polluter setup driven past the
// two-group capacity, with SLOs tight enough that overload control has
// work to do. mult scales both tenants' offered load.
func overloadConfig(e *engine.Engine, seed int64, groups int, mult float64) Config {
	llc := e.Machine().Config().LLC.Size
	sp := memory.NewSpace()
	region := sp.Alloc("stream", uint64(4*llc))
	return Config{
		Seed:    seed,
		Horizon: 2e-5,
		Tenants: []Tenant{
			{
				Name:    "victim",
				Process: Process{Kind: ProcPoisson, Rate: 2e6 * mult},
				Mix: []Workload{{Name: "point", Weight: 1, Class: int(core.Sensitive),
					Instances: alias(&expQuery{name: "point", meanRows: 60}, groups)}},
				QueueCap: 16,
				SLO:      2e-6,
			},
			{
				Name:    "polluter",
				Process: Process{Kind: ProcPoisson, Rate: 1.5e6 * mult},
				Mix: []Workload{{Name: "stream", Weight: 1, Class: int(core.Polluting),
					Instances: alias(&streamQuery{name: "stream", region: region, meanRows: 300}, groups)}},
				QueueCap: 16,
				SLO:      4e-6,
			},
		},
	}
}

// checkAccounting asserts the per-tenant attempt identities:
// attempts == arrivals + retries and attempts == completed + Σ drops.
func checkAccounting(t *testing.T, rep *Report) {
	t.Helper()
	for _, tr := range rep.Tenants {
		if tr.Attempts != tr.Arrivals+tr.Retries {
			t.Errorf("tenant %s: attempts %d != arrivals %d + retries %d",
				tr.Name, tr.Attempts, tr.Arrivals, tr.Retries)
		}
		drops := tr.DropQueue + tr.DropDeadline + tr.DropShed + tr.DropBreaker
		if tr.Dropped != drops {
			t.Errorf("tenant %s: Dropped %d != per-reason sum %d", tr.Name, tr.Dropped, drops)
		}
		if tr.Attempts != tr.Completed+tr.Dropped {
			t.Errorf("tenant %s: attempts %d != completed %d + dropped %d",
				tr.Name, tr.Attempts, tr.Completed, tr.Dropped)
		}
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	bk := newTenantBreaker(100, 1000)
	jit := func() float64 { return 1.0 }
	arrival := func(seq, tick int64) Arrival { return Arrival{Seq: seq, Tick: tick} }

	// Half a window of violations trips only once the window is full.
	for i := int64(0); i < breakerWindow; i++ {
		if bk.state != bkClosed {
			t.Fatalf("breaker tripped after %d completions, want %d", i, breakerWindow)
		}
		lat := int64(50)
		if i%2 == 0 {
			lat = 500
		}
		bk.observe(i, lat, 1000+i, jit)
	}
	if bk.state != bkOpen {
		t.Fatalf("breaker not open after sustained violation (state %d)", bk.state)
	}
	if bk.trips != 1 {
		t.Fatalf("trips = %d, want 1", bk.trips)
	}
	// Open: arrivals before openUntil are rejected.
	if ok, _ := bk.admit(arrival(10, bk.openUntil-1)); ok {
		t.Fatal("open breaker admitted an arrival before the backoff elapsed")
	}
	// Half-open: the first arrival past the backoff is the probe —
	// and exactly one is admitted until it resolves.
	ok, probe := bk.admit(arrival(11, bk.openUntil))
	if !ok || !probe {
		t.Fatalf("arrival past backoff: admit=%v probe=%v, want true/true", ok, probe)
	}
	if bk.probes != 1 {
		t.Fatalf("probes = %d, want 1", bk.probes)
	}
	for seq := int64(12); seq < 15; seq++ {
		if ok, _ := bk.admit(arrival(seq, bk.openUntil+seq)); ok {
			t.Fatalf("half-open breaker admitted a second query (seq %d)", seq)
		}
	}
	// Probe violates → reopen with doubled backoff.
	prevBackoff := bk.backoffTicks
	bk.observe(11, 500, 5000, jit)
	if bk.state != bkOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if bk.backoffTicks != 2*prevBackoff {
		t.Fatalf("backoff %d after failed probe, want doubled %d", bk.backoffTicks, 2*prevBackoff)
	}
	// Next probe succeeds → closed, backoff reset.
	ok, probe = bk.admit(arrival(20, bk.openUntil))
	if !ok || !probe {
		t.Fatal("second probe not admitted")
	}
	bk.observe(20, 50, bk.openUntil+60, jit)
	if bk.state != bkClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if bk.backoffTicks != bk.baseTicks {
		t.Fatalf("backoff %d after close, want base %d", bk.backoffTicks, bk.baseTicks)
	}
	// A dropped probe also reopens.
	for i := int64(0); i < breakerWindow; i++ {
		bk.observe(100+i, 500, 6000+i, jit)
	}
	ok, _ = bk.admit(arrival(200, bk.openUntil))
	if !ok {
		t.Fatal("third probe not admitted")
	}
	bk.probeDropped(200, bk.openUntil+10, jit)
	if bk.state != bkOpen {
		t.Fatal("dropped probe did not reopen the breaker")
	}
}

// TestBreakerInertWithoutSLO pins the opt-out: a tenant without an SLO
// has a breaker that admits everything, draws no jitter and counts
// nothing.
func TestBreakerInertWithoutSLO(t *testing.T) {
	bk := newTenantBreaker(0, 1000)
	jit := func() float64 {
		t.Fatal("inert breaker drew jitter")
		return 1
	}
	for i := int64(0); i < 2*breakerWindow; i++ {
		bk.observe(i, 1<<40, 1000+i, jit)
		if ok, probe := bk.admit(Arrival{Seq: i, Tick: 1000 + i}); !ok || probe {
			t.Fatalf("arrival %d: admit=%v probe=%v, want true/false", i, ok, probe)
		}
	}
	if bk.state != bkClosed || bk.trips != 0 || bk.probes != 0 || bk.filled != 0 {
		t.Errorf("inert breaker: state %d, %d trips, %d probes, %d filled; want closed and zeros",
			bk.state, bk.trips, bk.probes, bk.filled)
	}
}

// TestReportCountsDroppedProbeReopen trips a breaker through the feed,
// admits its half-open probe into a full queue and checks that the
// report counts the probe drop's re-open as a second trip.
func TestReportCountsDroppedProbeReopen(t *testing.T) {
	e := testEngine(t)
	m := e.Machine()
	cfg := overloadConfig(e, 1, 1, 1.0)
	cfg.Tenants[0].QueueCap = 1
	// Seqs 0 to breakerWindow-1 arrive at once: 0 fills the one-slot
	// queue and stays there, the rest overflow it. The last seq arrives
	// long after the trip.
	const probe = breakerWindow
	arrivals := make([]Arrival, probe+1)
	for i := range arrivals {
		arrivals[i] = Arrival{Seq: int64(i)}
	}
	arrivals[probe].Tick = 1 << 40
	f := newFeed(&cfg, m, arrivals, []int{2})
	f.absorb(0)

	// A window of completions far past the SLO fills the window and trips.
	done := 100 * m.Ticks(cfg.Tenants[0].SLO)
	for seq := int64(0); seq < probe; seq++ {
		f.Observe(engine.Completion{Tag: seq, Start: done, Done: done})
	}
	bk := &f.breakers[0]
	if bk.state != bkOpen || bk.openUntil > arrivals[probe].Tick {
		t.Fatalf("breaker state %d open until %d, want open before tick %d", bk.state, bk.openUntil, arrivals[probe].Tick)
	}
	// The last seq is the half-open probe; the queue is still full, so
	// it drops and the breaker re-opens.
	f.absorb(arrivals[probe].Tick)
	if bk.state != bkOpen || bk.trips != 2 {
		t.Fatalf("after the probe drop: state %d, %d trips; want open, 2 trips", bk.state, bk.trips)
	}

	rep := buildReport(&cfg, m.Ticks(cfg.Horizon), float64(m.Ticks(1)), f, &engine.OpenLoopResult{})
	if tr := rep.Tenants[0]; tr.BreakerTrips != 2 || tr.Probes != 1 || tr.DropQueue != probe {
		t.Errorf("report: %d trips, %d probes, %d queue drops; want 2, 1, %d", tr.BreakerTrips, tr.Probes, tr.DropQueue, probe)
	}
}

// TestRetryHeapOrder pushes arrivals with many tied ticks and seqs and
// checks that pops come out in retryLess order, the (tick, seq,
// attempt) order nextArrival merges retries by.
func TestRetryHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var h retryHeap
	var want []Arrival
	for i := 0; i < 300; i++ {
		a := Arrival{Tick: rng.Int63n(20), Seq: rng.Int63n(10), Attempt: rng.Intn(3)}
		h.push(a)
		want = append(want, a)
	}
	sort.Slice(want, func(i, j int) bool { return retryLess(want[i], want[j]) })
	for i, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d arrivals left after popping all", len(h))
	}
}

func TestDeadlineExpiryAccounting(t *testing.T) {
	e := testEngine(t)
	cfg := overloadConfig(e, 3, 2, 3.0)
	rep, err := Run(e, [][]int{{0, 1}, {2, 3}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	var deadline int64
	for _, tr := range rep.Tenants {
		deadline += tr.DropDeadline
	}
	if deadline == 0 {
		t.Error("3x overload with tight deadlines produced no deadline drops")
	}
	if rep.Completed == 0 {
		t.Error("no completions")
	}
}

func TestRetryBudget(t *testing.T) {
	e := testEngine(t)
	cfg := overloadConfig(e, 5, 2, 3.0)
	cfg.Retries = 3
	rep, err := Run(e, [][]int{{0, 1}, {2, 3}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Retries == 0 {
		t.Fatal("overloaded run with retries enabled scheduled none")
	}
	for _, tr := range rep.Tenants {
		if budget := int64(retryBudget * float64(tr.Arrivals)); tr.Retries > budget {
			t.Errorf("tenant %s: %d retries exceed budget %d (arrivals %d)",
				tr.Name, tr.Retries, budget, tr.Arrivals)
		}
	}
	if rep.Abandoned == 0 {
		t.Error("budgeted retries under sustained overload abandoned nothing")
	}
}

func TestShedPolicies(t *testing.T) {
	e := testEngine(t)
	groups := [][]int{{0, 1}, {2, 3}}

	base := overloadConfig(e, 7, 2, 3.0)
	rep, err := Run(e, groups, base)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Tenants[0].DropShed + rep.Tenants[1].DropShed; n != 0 {
		t.Fatalf("ShedNone shed %d queries", n)
	}
	if !rep.Tenants[1].Polluter {
		t.Fatal("streaming tenant not classified as polluter")
	}
	if rep.Tenants[0].Polluter {
		t.Fatal("compute tenant classified as polluter")
	}

	fair := overloadConfig(e, 7, 2, 3.0)
	fair.Shed = ShedFair
	frep, err := Run(e, groups, fair)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, frep)
	if frep.Tenants[0].DropShed+frep.Tenants[1].DropShed == 0 {
		t.Error("fair shedding under 3x overload shed nothing")
	}

	pol := overloadConfig(e, 7, 2, 3.0)
	pol.Shed = ShedPolluter
	prep, err := Run(e, groups, pol)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, prep)
	if prep.Tenants[1].DropShed == 0 {
		t.Error("polluter-first shedding dropped no polluter queries")
	}
	// The polluting tenant must absorb disproportionally more of the
	// shed than the victim.
	if prep.Tenants[0].DropShed >= prep.Tenants[1].DropShed {
		t.Errorf("victim shed %d >= polluter shed %d under polluter-first",
			prep.Tenants[0].DropShed, prep.Tenants[1].DropShed)
	}
}

// fullOverloadConfig layers every overload-control mechanism plus
// serving-plane chaos on the victim/polluter setup.
func fullOverloadConfig(e *engine.Engine, seed int64, groups int, shed Shed) Config {
	cfg := overloadConfig(e, seed, groups, 3.0)
	cfg.Shed = shed
	cfg.Retries = 2
	cfg.Faults = &fault.ServeConfig{Seed: seed * 31, Bursts: 1, BurstFactor: 3}
	return cfg
}

// TestOverloadBitIdentity runs every shed policy under the full
// overload-control stack: equal configs give equal reports, a
// different seed gives a different one, and seed 2's report is the
// recorded one.
func TestOverloadBitIdentity(t *testing.T) {
	groups := [][]int{{0, 1}, {2, 3}}
	for _, shed := range []Shed{ShedNone, ShedFair, ShedPolluter} {
		for _, seed := range []int64{2, 11, 23} {
			e := testEngine(t)
			a, err := Run(e, groups, fullOverloadConfig(e, seed, 2, shed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(e, groups, fullOverloadConfig(e, seed, 2, shed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v seed %d: identical overload configs produced different reports", shed, seed)
			}
			checkAccounting(t, a)
		}
		e := testEngine(t)
		a, errA := Run(e, groups, fullOverloadConfig(e, 2, 2, shed))
		b, errB := Run(e, groups, fullOverloadConfig(e, 3, 2, shed))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%v: different seeds produced identical overload reports", shed)
		}
		checkGolden(t, fmt.Sprintf("overload_%v_seed2", shed), a)
	}
}

// TestRunRejectsBadOverloadConfig pins Run's checks on the two
// overload values a Config carries.
func TestRunRejectsBadOverloadConfig(t *testing.T) {
	e := testEngine(t)
	neg := overloadConfig(e, 1, 2, 1.0)
	neg.Retries = -1
	unknown := overloadConfig(e, 1, 2, 1.0)
	unknown.Shed = ShedPolluter + 1
	for _, cfg := range []Config{neg, unknown} {
		if _, err := Run(e, [][]int{{0, 1}, {2, 3}}, cfg); err == nil {
			t.Errorf("Run accepted retries %d, shed %v", cfg.Retries, cfg.Shed)
		}
	}
}

// TestParseShed pins the shed policy names: each policy's String
// parses back to it, and an unknown name is an error.
func TestParseShed(t *testing.T) {
	for _, s := range []Shed{ShedNone, ShedFair, ShedPolluter} {
		if got, err := ParseShed(s.String()); err != nil || got != s {
			t.Errorf("ParseShed(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseShed("random"); err == nil {
		t.Error(`ParseShed("random") succeeded`)
	}
}

func TestBurstFaultSuperposition(t *testing.T) {
	m := testEngine(t).Machine()
	cfg := overloadConfig(testEngine(t), 9, 2, 1.0)
	base, err := GenArrivals(m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Bursts inject extra arrivals without disturbing the base stream:
	// the base trace is a subsequence of the burst trace.
	cfg.Faults = &fault.ServeConfig{Seed: 77, Bursts: 2, BurstFactor: 4}
	burst, err := GenArrivals(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) <= len(base) {
		t.Fatalf("burst trace has %d arrivals, base %d — no surge injected", len(burst), len(base))
	}
	i := 0
	for _, a := range burst {
		if i < len(base) && a.Tick == base[i].Tick && a.Tenant == base[i].Tenant && a.Kind == base[i].Kind {
			i++
		}
	}
	if i != len(base) {
		t.Errorf("base trace is not a subsequence of the burst trace (%d/%d matched)", i, len(base))
	}
}
