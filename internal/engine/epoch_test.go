package engine

import (
	"math/rand"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/cat"
	"cachepart/internal/core"
	"cachepart/internal/exec"
	"cachepart/internal/resctrl"
)

// epochProbe is a Controller that records every OnEpoch index and
// performs one schemata write at epoch writeAt. Its probeKernels check,
// at the start of every slice, that the epochs fired so far are
// exactly the boundaries the loop's clock has crossed, and that the
// write's cost landed on the core whose slice follows it.
type epochProbe struct {
	t          *testing.T
	e          *Engine
	epochTicks int64
	writeAt    int

	epochs []int
	// high is the latest clock a slice began at, less any epoch charge:
	// the clock the loop has fired epochs up to.
	high int64
	// burst is the most epochs fired between two slices.
	burst int

	// State at the write, compared at the next slice.
	armed     bool
	clocks    []int64
	stats     []cachesim.CoreStats
	written   int // MaskWrites at the write
	writeCore int // the core whose slice followed the write, -1 before
}

func newEpochProbe(t *testing.T, e *Engine, writeAt int) *epochProbe {
	return &epochProbe{t: t, e: e, epochTicks: e.Machine().Ticks(ControlEpochSeconds), writeAt: writeAt, writeCore: -1}
}

func (p *epochProbe) BeginRun([]StreamInfo) error {
	return p.e.ControlPlane().MakeGroup("probe")
}

// GroupFor leaves every job to the static policy.
func (p *epochProbe) GroupFor(int, core.CUID, core.Footprint) (string, error) { return "", nil }

func (p *epochProbe) OnEpoch(epoch int) error {
	p.epochs = append(p.epochs, epoch)
	if epoch != p.writeAt {
		return nil
	}
	m := p.e.Machine()
	p.armed = true
	p.clocks = make([]int64, m.Cores())
	p.stats = make([]cachesim.CoreStats, m.Cores())
	for c := range p.clocks {
		p.clocks[c], p.stats[c] = m.Now(c), m.Stats(c)
	}
	p.written = p.e.MaskWrites()
	return p.e.ControlPlane().WriteSchemata("probe", resctrl.FormatSchemata(cat.FullMask(1)))
}

// slice runs at the start of every slice on core c.
func (p *epochProbe) slice(c int) {
	p.t.Helper()
	m := p.e.Machine()
	now := m.Now(c)
	if p.armed {
		p.armed = false
		p.writeCore = c
		charge := int64(DefaultMaskOverheadCycles) * cachesim.TicksPerCycle
		now -= charge
		for d := range p.clocks {
			want := p.clocks[d]
			if d == c {
				want += charge
			}
			if got := m.Now(d); got != want {
				p.t.Errorf("core %d clock moved %d ticks across the write, want %d", d, got-p.clocks[d], want-p.clocks[d])
			}
		}
		d := m.Stats(c).Sub(p.stats[c])
		if d.ComputeTicks != charge || d.Instructions != 1 {
			p.t.Errorf("write charged the crossing core %d compute ticks and %d instructions, want %d and 1", d.ComputeTicks, d.Instructions, charge)
		}
		if got := p.e.MaskWrites() - p.written; got != 1 {
			p.t.Errorf("MaskWrites rose by %d across the write, want 1", got)
		}
		if now < int64(p.writeAt+1)*p.epochTicks {
			p.t.Errorf("epoch %d fired at tick %d, before its boundary", p.writeAt, now)
		}
	}
	fired := len(p.epochs) - int(p.high/p.epochTicks)
	p.high = max(p.high, now)
	if want := int(p.high / p.epochTicks); len(p.epochs) != want {
		p.t.Fatalf("slice at tick %d: %d epochs fired, want %d (epoch %d ticks)", now, len(p.epochs), want, p.epochTicks)
	}
	p.burst = max(p.burst, fired)
}

// check asserts the indices ran 0, 1, 2, …, how many fired and which
// core's slice followed the write.
func (p *epochProbe) check(wantEpochs, wantCore int) {
	p.t.Helper()
	for i, ep := range p.epochs {
		if ep != i {
			p.t.Fatalf("OnEpoch call %d had index %d", i, ep)
		}
	}
	if len(p.epochs) != wantEpochs {
		p.t.Errorf("%d epochs fired, want %d", len(p.epochs), wantEpochs)
	}
	if p.writeCore != wantCore {
		p.t.Errorf("core %d crossed epoch %d, want core %d", p.writeCore, p.writeAt, wantCore)
	}
}

// probeKernel is a countKernel that reports the start of each slice.
type probeKernel struct {
	countKernel
	p *epochProbe
}

func (k *probeKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	k.p.slice(ctx.Core)
	return k.countKernel.Step(ctx, budget)
}

// probeQuery plans one phase of probeKernels over rows rows.
type probeQuery struct {
	rows int
	p    *epochProbe
}

func (q *probeQuery) Name() string { return "probe" }

func (q *probeQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	parts := PartitionRows(q.rows, cores)
	ks := make([]exec.Kernel, len(parts))
	for i, pr := range parts {
		ks[i] = &probeKernel{countKernel{remaining: pr[1] - pr[0]}, q.p}
	}
	return []Phase{{Name: "probe", CUID: core.Sensitive, Kernels: ks, CountRows: true}}, nil
}

// TestEpochClock drives a recording controller through a closed run
// and through an open loop whose groups sit idle across several
// boundaries: the loop calls OnEpoch once per boundary its clock
// crosses, with indices 0, 1, 2, …, and a schemata write there costs
// the crossing core DefaultMaskOverheadCycles and counts as one mask
// write. The engine's policy is disabled, so the probe's write is the
// run's only one.
func TestEpochClock(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		e := testEngine(t, false)
		p := newEpochProbe(t, e, 1)
		e.AttachController(p)
		q := &probeQuery{rows: 40_000, p: p}
		if _, err := e.Run([]StreamSpec{
			{Query: q, Cores: []int{0, 1, 2}},
			{Query: q, Cores: []int{3, 4}},
		}, RunOptions{Duration: 0.0006, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		p.check(5, 3)
		if e.MaskWrites() != 1 {
			t.Errorf("MaskWrites = %d, want 1", e.MaskWrites())
		}
	})
	t.Run("open loop", func(t *testing.T) {
		e := testEngine(t, false)
		p := newEpochProbe(t, e, 3)
		e.AttachController(p)
		// Submissions arrive in pairs, one for each group, of unequal
		// length, 3.5 epochs apart.
		gap := p.epochTicks * 7 / 2
		subs := make([]Submission, 8)
		for i := range subs {
			subs[i] = Submission{
				Query:   &probeQuery{rows: 20_000 + 8_000*(i%2), p: p},
				Rng:     rand.New(rand.NewSource(int64(i + 1))),
				Release: int64(i/2) * gap,
				Tag:     int64(i),
			}
		}
		if _, err := e.RunOpenLoop([][]int{{0, 1}, {2, 3}}, &sliceFeed{subs: subs}, OpenLoopOptions{}); err != nil {
			t.Fatal(err)
		}
		p.check(11, 2)
		if p.burst < 2 {
			t.Errorf("at most %d epochs fired between two slices: no idle gap crossed several boundaries", p.burst)
		}
		if e.MaskWrites() != 1 {
			t.Errorf("MaskWrites = %d, want 1", e.MaskWrites())
		}
	})
}
