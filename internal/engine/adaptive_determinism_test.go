// The adaptive variant of TestRunBitIdentical lives in an external
// test package: the controller under test comes from internal/adapt,
// which imports engine, so an in-package test would close an import
// cycle.
package engine_test

import (
	"reflect"
	"testing"

	"cachepart/internal/adapt"
	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/memory"
	"cachepart/internal/workload"
)

// adaptiveFixture builds a small machine with a real feedback
// controller attached and the paper's scan + aggregation queries over
// a fresh address space.
func adaptiveFixture(t *testing.T) (*engine.Engine, *adapt.Controller, []engine.Query) {
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
	ctrl := adapt.Attach(e)
	space := memory.NewSpace()
	rng := workload.NewRand(7)
	q1, err := workload.NewQ1(space, rng, workload.Q1Spec{Rows: 1 << 20, Distinct: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := workload.NewQ2(space, rng, workload.Q2Spec{
		Rows: 1 << 18, DistinctV: 1 << 12, Groups: 1 << 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctrl, []engine.Query{q1, q2}
}

// TestRunBitIdenticalAdaptive extends the reproducibility contract of
// TestRunBitIdentical to controller-enabled runs: with the online
// feedback controller attached, two same-seed runs must produce
// bit-for-bit identical results and an identical mask-transition log.
func TestRunBitIdenticalAdaptive(t *testing.T) {
	type outcome struct {
		res []engine.StreamResult
		trs []adapt.Transition
	}
	run := func() outcome {
		t.Helper()
		e, ctrl, qs := adaptiveFixture(t)
		res, err := e.Run([]engine.StreamSpec{
			{Query: qs[0], Cores: []int{0, 1, 2, 3}},
			{Query: qs[1], Cores: []int{4, 5, 6, 7}},
		}, engine.RunOptions{Duration: 3e-4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res: res, trs: ctrl.Transitions()}
	}

	t.Run("disjoint", func(t *testing.T) {
		first := run()
		second := run()
		if !reflect.DeepEqual(first.res, second.res) {
			t.Errorf("same-seed adaptive runs diverged:\n first: %+v\nsecond: %+v",
				first.res, second.res)
		}
		if !reflect.DeepEqual(first.trs, second.trs) {
			t.Errorf("controller transitions diverged:\n first: %+v\nsecond: %+v",
				first.trs, second.trs)
		}
		if len(first.trs) == 0 {
			t.Error("controller recorded no transitions; workload too quiet to pin determinism")
		}
	})
}
