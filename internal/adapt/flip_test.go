package adapt_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cachepart/internal/adapt"
	"cachepart/internal/cachesim"
	"cachepart/internal/cat"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// walkKernel reads a region at line stride, wrapping around, for a
// fixed number of rows. Over a region much larger than the LLC it
// behaves as a scan; over a small region it is reuse-heavy.
type walkKernel struct {
	region memory.Region
	pos    uint64
	left   int
}

func (k *walkKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	n := budget
	if n > k.left {
		n = k.left
	}
	for i := 0; i < n; i++ {
		ctx.Read(k.region.Addr(k.pos))
		k.pos += memory.LineSize
		if k.pos >= k.region.Size {
			k.pos = 0
		}
		ctx.Compute(2, 2)
	}
	k.left -= n
	return n, k.left == 0
}

// flipQuery alternates a streaming phase over a region far larger
// than the LLC with a reuse phase over a small resident region —
// the mid-query behaviour change (think join build turning into
// probe) the controller must track. Both phases carry the default
// annotation: the controller is blind.
type flipQuery struct {
	big, small memory.Region
	streamRows int
	reuseRows  int
}

func (q *flipQuery) Name() string { return "flip" }

func (q *flipQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	return []engine.Phase{
		{
			Name: "stream", CUID: core.Sensitive,
			Kernels:   []exec.Kernel{&walkKernel{region: q.big, left: q.streamRows}},
			CountRows: true,
		},
		{
			Name: "reuse", CUID: core.Sensitive,
			Kernels:   []exec.Kernel{&walkKernel{region: q.small, left: q.reuseRows}},
			CountRows: true,
		},
	}, nil
}

// residentQuery walks a region smaller than the LLC over and over: a
// cache-sensitive stream, the co-runner that confining a streaming
// stream protects.
type residentQuery struct {
	region memory.Region
	rows   int
}

func (q *residentQuery) Name() string { return "resident" }

func (q *residentQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	return []engine.Phase{{
		Name: "reuse", CUID: core.Sensitive,
		Kernels:   []exec.Kernel{&walkKernel{region: q.region, left: q.rows}},
		CountRows: true,
	}}, nil
}

// flipSystem builds a small machine with an attached controller and
// the flip query, which runs on core 0 beside a resident stream on
// core 1.
func flipSystem(t *testing.T) (*engine.Engine, *adapt.Controller, []engine.StreamSpec) {
	t.Helper()
	cfg := cachesim.DefaultConfig().Scaled(32)
	cfg.Cores = 2
	m, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(m, core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := adapt.Attach(e)
	llc := cfg.LLC.Size
	space := memory.NewSpace()
	q := &flipQuery{
		big:        space.Alloc("flip.big", 4*llc),
		small:      space.Alloc("flip.small", llc/4),
		streamRows: 300_000,
		reuseRows:  500_000,
	}
	resident := &residentQuery{region: space.Alloc("resident", llc/8), rows: 100_000}
	return e, ctrl, []engine.StreamSpec{
		{Query: q, Cores: []int{0}},
		{Query: resident, Cores: []int{1}},
	}
}

// TestPhaseFlipReclassified runs the flip query under the blind
// controller and checks that it tracks both directions: the streaming
// phase gets confined to the narrow slice, the confined stream is put
// on probation, and after the flip the reuse phase is committed
// cache-sensitive. The resident co-runner is never confined.
func TestPhaseFlipReclassified(t *testing.T) {
	e, ctrl, specs := flipSystem(t)
	res, err := e.Run(specs, engine.RunOptions{Duration: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rows == 0 {
		t.Fatal("flip query made no measured progress")
	}

	ways := e.Policy().LLCWays
	full := cat.FullMask(ways)
	narrow := cat.PortionMask(ways, adapt.StreamingWaysFraction)
	var confines, widens, recoveries, written int
	firstConfine, firstRecovery := -1, -1
	for _, tr := range ctrl.Transitions() {
		if tr.Written {
			written++
		}
		switch {
		case tr.Stream != 0:
			if tr.Mask != full {
				t.Fatalf("resident stream confined: %+v", tr)
			}
		case !tr.Trial && tr.To == adapt.Streaming && tr.Mask == narrow:
			confines++
			if firstConfine < 0 {
				firstConfine = tr.Epoch
			}
		case tr.Trial && tr.Mask == full:
			widens++
		case !tr.Trial && tr.To == adapt.CacheSensitive && tr.Mask == full:
			recoveries++
			if firstRecovery < 0 {
				firstRecovery = tr.Epoch
			}
		}
	}
	if confines == 0 {
		t.Fatal("streaming phase was never confined")
	}
	if widens == 0 {
		t.Fatal("confined stream was never probed")
	}
	if recoveries == 0 {
		t.Fatal("reuse phase was never reclassified cache-sensitive")
	}
	if firstRecovery >= 0 && firstConfine >= 0 && firstRecovery <= firstConfine {
		t.Fatalf("recovery (epoch %d) before confinement (epoch %d)",
			firstRecovery, firstConfine)
	}
	// The flip query alternates every execution, so the controller
	// should confine again after recovering at least once.
	if confines < 2 {
		t.Fatalf("controller confined only %d time(s); never re-narrowed after recovery",
			confines)
	}
	if got := ctrl.SchemataWrites(); got != written {
		t.Fatalf("SchemataWrites = %d, but %d transitions are Written", got, written)
	}
	t.Logf("transitions: %d confine, %d widen, %d recover (%d writes)",
		confines, widens, recoveries, written)
}

// TestAdaptiveRunBitIdentical runs the same seeded flip workload twice
// with a controller attached and requires identical results and an
// identical transition log — the determinism contract extended to the
// adaptive path.
func TestAdaptiveRunBitIdentical(t *testing.T) {
	run := func() ([]engine.StreamResult, []adapt.Transition) {
		e, ctrl, specs := flipSystem(t)
		res, err := e.Run(specs, engine.RunOptions{Duration: 0.004, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res, ctrl.Transitions()
	}
	res1, tr1 := run()
	res2, tr2 := run()
	if len(tr1) == 0 {
		t.Fatal("expected controller activity")
	}
	assertDeepEqual(t, "results", res1, res2)
	assertDeepEqual(t, "transitions", tr1, tr2)
}

func assertDeepEqual(t *testing.T, what string, a, b any) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s differ between same-seed runs:\n%+v\n%+v", what, a, b)
	}
}
