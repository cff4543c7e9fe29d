package engine

import (
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/cat"
	"cachepart/internal/core"
)

// testMachine is a 1/64-scale paper machine with 8 cores: LLC ~880 KiB,
// 20 ways, so experiments run in milliseconds.
func testMachine(t *testing.T) *cachesim.Machine {
	t.Helper()
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 8
	m, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testEngine(t *testing.T, enabled bool) *Engine {
	t.Helper()
	m := testMachine(t)
	p := core.DefaultPolicy(m.Config().LLC.Size, m.Config().LLC.Ways)
	p.Enabled = enabled
	e, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidatesPolicy(t *testing.T) {
	m := testMachine(t)
	bad := core.DefaultPolicy(m.Config().LLC.Size, m.Config().LLC.Ways)
	bad.PollutingFraction = 0
	if _, err := New(m, bad); err == nil {
		t.Error("invalid policy accepted")
	}
	mismatch := core.DefaultPolicy(1<<20, 16) // wrong way count
	if _, err := New(m, mismatch); err == nil {
		t.Error("way-count mismatch accepted")
	}
}

func TestApplyCUIDProgramsMask(t *testing.T) {
	e := testEngine(t, true)
	if err := e.applyCUID(3, -1, core.Polluting, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	if got := e.Machine().CAT().MaskOf(3); got != 0x3 {
		t.Errorf("core 3 mask = %v, want 0x3", got)
	}
	if err := e.applyCUID(3, -1, core.Sensitive, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	if got := e.Machine().CAT().MaskOf(3); got != cat.FullMask(20) {
		t.Errorf("core 3 mask = %v, want full", got)
	}
}

func TestApplyCUIDElidesRedundantWrites(t *testing.T) {
	e := testEngine(t, true)
	if err := e.applyCUID(0, -1, core.Polluting, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	w := e.MaskWrites()
	clock := e.Machine().Now(0)
	for i := 0; i < 5; i++ {
		if err := e.applyCUID(0, -1, core.Polluting, core.Footprint{}); err != nil {
			t.Fatal(err)
		}
	}
	if e.MaskWrites() != w {
		t.Errorf("redundant applies performed %d extra writes", e.MaskWrites()-w)
	}
	if e.Machine().Now(0) != clock {
		t.Error("redundant applies charged overhead")
	}
}

func TestApplyCUIDChargesOverheadOnChange(t *testing.T) {
	e := testEngine(t, true)
	_ = e.applyCUID(0, -1, core.Polluting, core.Footprint{})
	before := e.Machine().Now(0)
	_ = e.applyCUID(0, -1, core.Sensitive, core.Footprint{})
	if got := e.Machine().Now(0) - before; got != DefaultMaskOverheadCycles*cachesim.TicksPerCycle {
		t.Errorf("overhead = %d ticks, want %d", got, DefaultMaskOverheadCycles*cachesim.TicksPerCycle)
	}
}

func TestPolicyDisabledNeverMasks(t *testing.T) {
	e := testEngine(t, false)
	for _, cuid := range []core.CUID{core.Polluting, core.Sensitive, core.Depends} {
		if err := e.applyCUID(1, -1, cuid, core.Footprint{BitVectorBytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if got := e.Machine().CAT().MaskOf(1); got != cat.FullMask(20) {
			t.Errorf("disabled policy masked core to %v for %v", got, cuid)
		}
	}
	if e.MaskWrites() != 0 {
		t.Errorf("disabled policy performed %d mask writes", e.MaskWrites())
	}
}

func TestLimitWays(t *testing.T) {
	e := testEngine(t, false)
	if err := e.LimitWays(4); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < e.Machine().Cores(); c++ {
		if got := e.Machine().CAT().MaskOf(c); got != 0xf {
			t.Errorf("core %d mask = %v, want 0xf", c, got)
		}
	}
	// Per-job masks are suppressed while a limit is active.
	ep := testEngine(t, true)
	if err := ep.LimitWays(4); err != nil {
		t.Fatal(err)
	}
	_ = ep.applyCUID(0, -1, core.Polluting, core.Footprint{})
	if got := ep.Machine().CAT().MaskOf(0); got != 0xf {
		t.Errorf("limit overridden by job mask: %v", got)
	}
	if err := e.LimitWays(0); err != nil {
		t.Fatal(err)
	}
	if got := e.Machine().CAT().MaskOf(0); got != cat.FullMask(20) {
		t.Errorf("limit not lifted: %v", got)
	}
	if err := e.LimitWays(-1); err == nil {
		t.Error("negative limit accepted")
	}
	if err := e.LimitWays(21); err == nil {
		t.Error("excessive limit accepted")
	}
}

func TestSetPolicy(t *testing.T) {
	e := testEngine(t, false)
	p := e.Policy()
	p.Enabled = true
	if err := e.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if !e.Policy().Enabled {
		t.Error("policy not replaced")
	}
	p.PollutingFraction = -1
	if err := e.SetPolicy(p); err == nil {
		t.Error("invalid policy accepted")
	}
}

func TestPartitionRows(t *testing.T) {
	cases := []struct {
		rows, n int
		want    [][2]int
	}{
		{10, 2, [][2]int{{0, 5}, {5, 10}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{2, 4, [][2]int{{0, 1}, {1, 2}}},
		{5, 0, [][2]int{{0, 5}}},
	}
	for _, c := range cases {
		got := PartitionRows(c.rows, c.n)
		if len(got) != len(c.want) {
			t.Errorf("PartitionRows(%d,%d) = %v", c.rows, c.n, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PartitionRows(%d,%d) = %v, want %v", c.rows, c.n, got, c.want)
				break
			}
		}
	}
	// Partitions tile the range exactly.
	parts := PartitionRows(1000, 7)
	prev := 0
	for _, p := range parts {
		if p[0] != prev {
			t.Fatalf("gap at %v", p)
		}
		prev = p[1]
	}
	if prev != 1000 {
		t.Fatalf("partitions end at %d", prev)
	}
}

func TestRunValidation(t *testing.T) {
	e := testEngine(t, false)
	q := &countQuery{name: "q", rowsPerExec: 100, cuid: core.Sensitive}
	if _, err := e.Run(nil, RunOptions{Duration: 1e-3}); err == nil {
		t.Error("no streams accepted")
	}
	if _, err := e.Run([]StreamSpec{{Query: q, Cores: []int{0}}}, RunOptions{}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := e.Run([]StreamSpec{{Query: q, Cores: nil}}, RunOptions{Duration: 1e-3}); err == nil {
		t.Error("empty core set accepted")
	}
	if _, err := e.Run([]StreamSpec{{Query: q, Cores: []int{99}}}, RunOptions{Duration: 1e-3}); err == nil {
		t.Error("out-of-range core accepted")
	}
	specs := []StreamSpec{
		{Query: q, Cores: []int{0, 1}},
		{Query: q, Cores: []int{1, 2}},
	}
	if _, err := e.Run(specs, RunOptions{Duration: 1e-3}); err == nil {
		t.Error("overlapping cores accepted")
	}
}

func TestRunCountsExecutions(t *testing.T) {
	e := testEngine(t, false)
	q := &countQuery{name: "q", rowsPerExec: 1000, cuid: core.Sensitive}
	res, err := e.Run([]StreamSpec{{Query: q, Cores: []int{0, 1}}},
		RunOptions{Duration: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Name != "q" {
		t.Errorf("Name = %q", r.Name)
	}
	if r.Executions == 0 || r.Rows == 0 {
		t.Errorf("no progress: %+v", r)
	}
	if r.Throughput <= 0 || r.WindowSeconds <= 0 {
		t.Errorf("bad throughput: %+v", r)
	}
	if r.Stats.Instructions == 0 {
		t.Error("no instructions retired")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() StreamResult {
		e := testEngine(t, false)
		q := &countQuery{name: "q", rowsPerExec: 777, cuid: core.Sensitive}
		res, err := e.Run([]StreamSpec{{Query: q, Cores: []int{0, 1, 2}}},
			RunOptions{Duration: 1e-4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	a, b := run(), run()
	if a.Rows != b.Rows || a.Executions != b.Executions {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRunTwoStreamsShareTime(t *testing.T) {
	e := testEngine(t, false)
	qa := &countQuery{name: "a", rowsPerExec: 500, cuid: core.Sensitive}
	qb := &countQuery{name: "b", rowsPerExec: 500, cuid: core.Sensitive}
	res, err := e.Run([]StreamSpec{
		{Query: qa, Cores: []int{0, 1}},
		{Query: qb, Cores: []int{2, 3}},
	}, RunOptions{Duration: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rows == 0 || res[1].Rows == 0 {
		t.Errorf("a stream starved: %+v", res)
	}
	// Symmetric streams make symmetric progress (within 10%).
	ratio := float64(res[0].Rows) / float64(res[1].Rows)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("asymmetric progress: %v", ratio)
	}
}

func TestRunMultiPhaseBarrier(t *testing.T) {
	e := testEngine(t, false)
	q := &twoPhaseQuery{rowsA: 600, rowsB: 100}
	res, err := e.Run([]StreamSpec{{Query: q, Cores: []int{0, 1, 2}}},
		RunOptions{Duration: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Executions == 0 {
		t.Fatal("no executions completed")
	}
	if q.outOfOrder {
		t.Error("phase B kernel observed unfinished phase A")
	}
}
