package adapt

import (
	"testing"

	"cachepart/internal/cat"
	"cachepart/internal/core"
	"cachepart/internal/resctrl"
)

// flakyErr is a locally-declared injected control-plane error: it
// carries the Transient marker the controller classifies by, without
// importing internal/fault — proving the classification contract is
// the interface, not the concrete type.
type flakyErr struct{ persistent bool }

func (e *flakyErr) Error() string   { return "flaky: injected control-plane failure" }
func (e *flakyErr) Transient() bool { return !e.persistent }

// flakyPlane wraps the real mount and fails a scripted number of
// schemata writes and group creations with injected errors.
type flakyPlane struct {
	resctrl.Plane
	failWrites int
	failMake   int
}

func (p *flakyPlane) WriteSchemata(group, schemata string) error {
	if p.failWrites > 0 {
		p.failWrites--
		return &flakyErr{}
	}
	return p.Plane.WriteSchemata(group, schemata)
}

func (p *flakyPlane) MakeGroup(name string) error {
	if p.failMake > 0 {
		p.failMake--
		return &flakyErr{persistent: true}
	}
	return p.Plane.MakeGroup(name)
}

// gapController builds a controller over an optionally-wrapped mount,
// returning the underlying FS so tests can script telemetry gaps by
// detaching the monitor. The tests below end before trialInterval
// epochs, so no probation interferes.
func gapController(t *testing.T, wrap func(resctrl.Plane) resctrl.Plane) (*Controller, *fakeMon, *resctrl.FS) {
	t.Helper()
	regs, err := cat.NewRegisters(4, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs := resctrl.Mount(regs)
	mon := &fakeMon{occ: map[int]uint64{}, traffic: map[int]uint64{}}
	fs.AttachMonitor(mon)
	var plane resctrl.Plane = fs
	if wrap != nil {
		plane = wrap(fs)
	}
	return &Controller{
		fs:                 plane,
		win:                resctrl.NewMonWindow(plane),
		policy:             core.DefaultPolicy(testLLCBytes, 20),
		ways:               20,
		llcBytes:           testLLCBytes,
		peakBytesPerSecond: testPeakBW,
	}, mon, fs
}

// TestTelemetryGapHoldsClass scripts a monitoring outage in the middle
// of a streaming phase: the controller must hold its last decision —
// class, mask, debounce state — across the gap rather than treat
// missing telemetry as evidence of anything.
func TestTelemetryGapHoldsClass(t *testing.T) {
	c, mon, fs := gapController(t, nil)
	beginBesideResident(t, c, mon)
	epoch(t, c, mon, 0, hotTraffic, bigOcc)
	epoch(t, c, mon, 1, hotTraffic, bigOcc)
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("class before gap = %v, want streaming", got)
	}

	// Outage: every sample fails until the monitor comes back.
	fs.AttachMonitor(nil)
	for e := 2; e < 6; e++ {
		if err := c.OnEpoch(e); err != nil {
			t.Fatalf("epoch %d errored during telemetry gap: %v", e, err)
		}
	}
	if got := c.ClassOf(0); got != Streaming {
		t.Errorf("class during gap = %v, want streaming held", got)
	}
	if m, _ := c.fs.Mask("adapt0"); m != narrowMask() {
		t.Errorf("mask during gap = %v, want %v held", m, narrowMask())
	}
	if got := c.Gaps(); got != 8 { // 4 epochs of both streams
		t.Errorf("Gaps() = %d, want 8", got)
	}

	// Recovery: the stream is still streaming; no spurious transition.
	fs.AttachMonitor(mon)
	transitions := len(c.Transitions())
	epoch(t, c, mon, 6, hotTraffic, bigOcc)
	epoch(t, c, mon, 7, hotTraffic, bigOcc)
	if got := c.ClassOf(0); got != Streaming {
		t.Errorf("class after recovery = %v, want streaming", got)
	}
	if got := len(c.Transitions()); got != transitions {
		t.Errorf("recovery logged %d spurious transitions", got-transitions)
	}
}

// TestGapSpanningDeltaNotMisclassified pins the rate normalization: a
// quiet stream keeps trickling traffic through a two-epoch outage, so
// the first sample after recovery sees three epochs' bytes at once.
// Divided by the spanned epochs it is still a quiet rate; read naively
// it would look like a streaming burst.
func TestGapSpanningDeltaNotMisclassified(t *testing.T) {
	// Per-epoch traffic at ~60% of the streaming threshold: three
	// epochs' accumulation reads ~1.8x the threshold if the gap is
	// ignored.
	quiet := uint64(hotTraffic / 8)
	c, mon, fs := gapController(t, nil)
	if err := beginRun(c, "s"); err != nil {
		t.Fatal(err)
	}
	epoch(t, c, mon, 0, quiet, tinyOcc)
	epoch(t, c, mon, 1, quiet, tinyOcc)
	if got := c.ClassOf(0); got == Streaming {
		t.Fatalf("quiet stream classified streaming before gap")
	}

	fs.AttachMonitor(nil)
	for e := 2; e < 4; e++ {
		mon.traffic[stream0CLOS] += quiet // traffic continues unobserved
		if err := c.OnEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	fs.AttachMonitor(mon)
	epoch(t, c, mon, 4, quiet, tinyOcc)
	epoch(t, c, mon, 5, quiet, tinyOcc)
	if got := c.ClassOf(0); got == Streaming {
		t.Error("gap-spanning delta misclassified a quiet stream as streaming")
	}
	if got := c.Gaps(); got != 2 {
		t.Errorf("Gaps() = %d, want 2", got)
	}
}

// TestWriteFaultDegradesToStaleMask scripts an EBUSY-style schemata
// write fault at the confinement moment: the epoch must not error, the
// group keeps its previous (full, safe) mask, and the next epoch's
// elision check retries and lands the write.
func TestWriteFaultDegradesToStaleMask(t *testing.T) {
	var fp *flakyPlane
	c, mon, _ := gapController(t, func(p resctrl.Plane) resctrl.Plane {
		fp = &flakyPlane{Plane: p, failWrites: 1}
		return fp
	})
	beginBesideResident(t, c, mon)
	epoch(t, c, mon, 0, hotTraffic, bigOcc)
	epoch(t, c, mon, 1, hotTraffic, bigOcc) // confinement write → injected fault
	if got := c.WriteFailures(); got != 1 {
		t.Fatalf("WriteFailures() = %d, want 1", got)
	}
	if m, _ := c.fs.Mask("adapt0"); m != cat.FullMask(20) {
		t.Fatalf("mask after failed write = %v, want full (stale but safe)", m)
	}
	epoch(t, c, mon, 2, hotTraffic, bigOcc) // elision check retries
	if m, _ := c.fs.Mask("adapt0"); m != narrowMask() {
		t.Errorf("mask after retry epoch = %v, want %v", m, narrowMask())
	}
	if got := c.WriteFailures(); got != 1 {
		t.Errorf("retry recorded %d extra failures", got-1)
	}
}

// TestMakeGroupFaultDegradesStream scripts CLOS exhaustion at run
// start: the stream whose group cannot be created is degraded — its
// jobs route to the engine's static path — while the run proceeds.
func TestMakeGroupFaultDegradesStream(t *testing.T) {
	c, mon, _ := gapController(t, func(p resctrl.Plane) resctrl.Plane {
		return &flakyPlane{Plane: p, failMake: 1}
	})
	if err := beginRun(c, "s", "u"); err != nil {
		t.Fatalf("BeginRun errored on injected MakeGroup fault: %v", err)
	}
	g, err := c.GroupFor(0, core.Polluting, core.Footprint{})
	if err != nil {
		t.Fatal(err)
	}
	if g != "" {
		t.Errorf("degraded stream routed to group %q, want static fallback", g)
	}
	// The second stream's group was created normally and is steered.
	g, err = c.GroupFor(1, core.Sensitive, core.Footprint{})
	if err != nil {
		t.Fatal(err)
	}
	if g == "" {
		t.Error("healthy stream degraded alongside the faulted one")
	}
	// Epochs skip the degraded stream without error.
	mon.traffic[2] += hotTraffic // the healthy stream's CLOS
	if err := c.OnEpoch(0); err != nil {
		t.Fatalf("OnEpoch errored with a degraded stream: %v", err)
	}
}
