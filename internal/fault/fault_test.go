package fault

import (
	"errors"
	"strings"
	"testing"

	"cachepart/internal/cat"
	"cachepart/internal/resctrl"
)

func newPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	regs, err := cat.NewRegisters(4, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Wrap(resctrl.Mount(regs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// script exercises a fixed sequence of control-plane calls and records
// which draw an injected fault, as a fault-schedule fingerprint.
// Genuine inner errors (group already exists, no monitor attached) are
// excluded so the fingerprint depends only on the injector.
func script(pl *Plane) []bool {
	var fails []bool
	ops := []func() error{
		func() error { return pl.MakeGroup("g0") },
		func() error { return pl.WriteSchemata("g0", "L3:0=3") },
		func() error { return pl.MoveTask(1000, "g0") },
		func() error { return pl.Schedule(1000, 0) },
		func() error { _, err := pl.ReadMonData("g0"); return err },
	}
	for round := 0; round < 50; round++ {
		for _, op := range ops {
			err := op()
			fails = append(fails, err != nil && strings.Contains(err.Error(), "injected"))
		}
	}
	return fails
}

func TestFaultZeroRateInjectsNothing(t *testing.T) {
	pl := newPlane(t, Config{Seed: 1})
	if err := pl.MakeGroup("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := pl.WriteSchemata("g", "L3:0=3"); err != nil {
			t.Fatalf("write %d failed with zero rates: %v", i, err)
		}
		if err := pl.MoveTask(1000, "g"); err != nil {
			t.Fatal(err)
		}
		if err := pl.Schedule(1000, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := pl.Stats(); s.Injected != 0 {
		t.Errorf("injected %d faults at rate 0", s.Injected)
	}
}

func TestFaultFullRateAlwaysFails(t *testing.T) {
	pl := newPlane(t, Config{Seed: 1, WriteSchemata: 1, MoveTask: 1, MakeGroup: 1, Schedule: 1})
	if err := pl.MakeGroup("g"); err == nil {
		t.Error("MakeGroup succeeded at rate 1")
	}
	if err := pl.MoveTask(1000, "g"); err == nil {
		t.Error("MoveTask succeeded at rate 1")
	}
	if err := pl.Schedule(1000, 0); err == nil {
		t.Error("Schedule succeeded at rate 1")
	}
	// Reads are never injected.
	if _, err := pl.Mask(resctrl.RootGroup); err != nil {
		t.Errorf("read-only Mask failed: %v", err)
	}
}

func TestFaultSameSeedSameSchedule(t *testing.T) {
	cfg := Uniform(0.3, 42)
	a := script(newPlane(t, cfg))
	b := script(newPlane(t, cfg))
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d", i)
		}
	}
	// A different seed must (at this rate and length) differ somewhere.
	c := script(newPlane(t, Uniform(0.3, 43)))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 42 and 43 injected identical schedules")
	}
}

func TestFaultTransience(t *testing.T) {
	f := &Fault{Op: OpWriteSchemata, Group: "g", Errno: "EBUSY"}
	if !f.Transient() {
		t.Error("non-persistent fault reports not transient")
	}
	f.Persistent = true
	if f.Transient() {
		t.Error("persistent fault reports transient")
	}
	var iface interface{ Transient() bool }
	if !errors.As(error(f), &iface) {
		t.Error("Fault does not satisfy the Transient interface via errors.As")
	}
}

func TestFaultPersistentTripsBreaker(t *testing.T) {
	// Every injected fault is persistent; once one fires, the same
	// (op, group) pair must fail on every subsequent call.
	pl := newPlane(t, Config{Seed: 3, WriteSchemata: 0.5, PersistentFraction: 1})
	if err := pl.MakeGroup("g"); err != nil {
		t.Fatal(err)
	}
	tripped := -1
	for i := 0; i < 200; i++ {
		if err := pl.WriteSchemata("g", "L3:0=3"); err != nil {
			tripped = i
			break
		}
	}
	if tripped < 0 {
		t.Fatal("no fault in 200 calls at rate 0.5")
	}
	for i := 0; i < 20; i++ {
		err := pl.WriteSchemata("g", "L3:0=3")
		if err == nil {
			t.Fatalf("tripped breaker let call %d through", i)
		}
		var f *Fault
		if !errors.As(err, &f) || !f.Persistent {
			t.Fatalf("breaker error not a persistent Fault: %v", err)
		}
	}
	// Other groups are unaffected by g's breaker (they draw their own
	// fate from the rate).
	if err := pl.MakeGroup("other"); err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats(); got.PersistentTrips != 1 {
		t.Errorf("PersistentTrips = %d, want 1", got.PersistentTrips)
	}
}

func TestFaultMonErrorsWrapSentinels(t *testing.T) {
	unavailable := newPlane(t, Config{Seed: 5, MonUnavailable: 1})
	if _, err := unavailable.ReadMonData(resctrl.RootGroup); !errors.Is(err, resctrl.ErrUnavailable) {
		t.Errorf("MonUnavailable error = %v, want ErrUnavailable", err)
	}
	sticky := newPlane(t, Config{Seed: 5, MonError: 1})
	for i := 0; i < 3; i++ {
		if _, err := sticky.ReadMonData(resctrl.RootGroup); !errors.Is(err, resctrl.ErrCounter) {
			t.Errorf("MonError read %d = %v, want ErrCounter", i, err)
		}
	}
	if s := sticky.Stats(); s.MonFaults != 3 || s.PersistentTrips != 1 {
		t.Errorf("sticky stats = %+v, want 3 mon faults from 1 trip", s)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	if err := (Config{Seed: 1}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if err := (Config{MoveTask: 1.5}).Validate(); err == nil {
		t.Error("rate above 1 accepted")
	}
	if err := (Config{MonError: -0.1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := Wrap(nil, Config{}); err == nil {
		t.Error("nil inner plane accepted")
	}
	cfg := Uniform(0.2, 9)
	if cfg.Seed != 9 || cfg.WriteSchemata != 0.2 || cfg.MonUnavailable != 0.2 {
		t.Errorf("Uniform built %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Uniform config invalid: %v", err)
	}
}
