package fault

import (
	"math"
	"reflect"
	"testing"
)

func testServePlane(t *testing.T, seed int64) *ServePlane {
	t.Helper()
	cfg := ServeConfig{Seed: seed, Bursts: 2, BurstFactor: 4}
	p, err := NewServePlane(cfg, 1e-4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServePlaneDeterminism(t *testing.T) {
	a, b := testServePlane(t, 42), testServePlane(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical configs built different chaos schedules")
	}
	c := testServePlane(t, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different fault seeds built identical chaos schedules")
	}
}

func TestServePlaneWindows(t *testing.T) {
	p := testServePlane(t, 7)
	const horizon = 1e-4
	nb := 0
	for tn := 0; tn < 3; tn++ {
		for _, b := range p.Bursts(tn) {
			nb++
			if b.Start < 0 || b.End > horizon || b.Start >= b.End {
				t.Errorf("tenant %d burst [%v, %v) out of bounds", tn, b.Start, b.End)
			}
			if b.Factor != 4 {
				t.Errorf("tenant %d burst factor %v, want 4", tn, b.Factor)
			}
		}
	}
	if nb == 0 {
		t.Error("no burst windows generated with Bursts=2 over 3 tenants")
	}
	// Nil plane and out-of-range tenants are safe no-ops.
	var nilPlane *ServePlane
	if nilPlane.Bursts(0) != nil || p.Bursts(99) != nil {
		t.Error("nil plane or out-of-range tenant injected chaos")
	}
}

func TestServeConfigValidate(t *testing.T) {
	good := ServeConfig{Bursts: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []ServeConfig{
		{Bursts: -1},
		{BurstFactor: -2},
		{BurstFactor: 0.5},
		{BurstFactor: 1},
		{BurstFactor: math.NaN()},
		{BurstFactor: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if _, err := NewServePlane(ServeConfig{Bursts: -1}, 1e-4, 1); err == nil {
		t.Error("NewServePlane accepted a negative rate")
	}
}
