package harness

import (
	"bytes"
	"reflect"
	"testing"

	"cachepart/internal/fault"
)

// TestFigChaosFunction runs a short chaos sweep at test scale: every
// point must complete without error — the robustness contract — while
// reporting the injection accounting that proves faults actually flew.
func TestFigChaosFunction(t *testing.T) {
	t.Parallel()
	p := Fast()
	r, err := figChaosAt(p, []float64{0.05, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	PrintChaos(&out, r)
	checkGolden(t, "chaos", out.Bytes())
	if len(r.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(r.Points))
	}
	if r.BaseA.Throughput <= 0 || r.BaseB.Throughput <= 0 {
		t.Fatalf("fault-free baseline has zero throughput: %+v", r)
	}
	for _, pt := range r.Points {
		if pt.A.Throughput <= 0 || pt.B.Throughput <= 0 {
			t.Errorf("rate %v: zero throughput under faults: %+v", pt.Rate, pt)
		}
		if pt.Injected == 0 {
			t.Errorf("rate %v: injector reports zero faults", pt.Rate)
		}
	}
	// At rate 1.0 every placement attempt fails, so the run must have
	// degraded streams to survive.
	if last := r.Points[len(r.Points)-1]; last.Degraded == 0 {
		t.Errorf("rate 1.0 reported zero degradations: %+v", last)
	}
}

// TestChaosSameSeedIdentical pins determinism end to end through the
// harness: two sweeps with identical params (run seed and fault seed
// alike) must produce identical results, faults and all.
func TestChaosSameSeedIdentical(t *testing.T) {
	t.Parallel()
	run := func() ChaosResult {
		t.Helper()
		r, err := figChaosAt(Fast(), []float64{0.1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed chaos sweeps diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestChaosDisableRestoresPlane checks EnableChaos/DisableChaos
// round-trip: after disabling, the engine's control plane is the
// original mount and a clean run matches the pre-chaos baseline.
func TestChaosDisableRestoresPlane(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(Fast())
	if err != nil {
		t.Fatal(err)
	}
	orig := sys.Engine.ControlPlane()
	pl, err := sys.EnableChaos(fault.Uniform(0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine.ControlPlane() != pl {
		t.Error("EnableChaos did not install the injector")
	}
	sys.DisableChaos()
	if sys.Engine.ControlPlane() != orig {
		t.Error("DisableChaos did not restore the original plane")
	}
	sys.DisableChaos() // second disable is a no-op
	if sys.Engine.ControlPlane() != orig {
		t.Error("repeated DisableChaos changed the plane")
	}
}
