package adapt

import (
	"testing"

	"cachepart/internal/cat"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/resctrl"
)

// beginRun starts a run of single-core streams with the given names.
func beginRun(c *Controller, names ...string) error {
	infos := make([]engine.StreamInfo, len(names))
	for i, n := range names {
		infos[i] = engine.StreamInfo{Name: n, Cores: 1}
	}
	return c.BeginRun(infos)
}

// beginBesideResident starts a run of stream 0 beside a stream 1 that
// holds a resident working set and pulls no traffic. Stream 1 is the
// beneficiary that confining stream 0 protects: Unknown at first, then
// cache-sensitive. Groups are numbered in creation order on a fresh
// mount, so stream 1 is CLOS 2.
func beginBesideResident(t *testing.T, c *Controller, mon *fakeMon) {
	t.Helper()
	mon.occ[stream0CLOS+1] = bigOcc
	if err := beginRun(c, "s", "resident"); err != nil {
		t.Fatal(err)
	}
}

// fakeMon lets tests script per-CLOS telemetry.
type fakeMon struct {
	occ     map[int]uint64
	traffic map[int]uint64
}

func (m *fakeMon) LLCOccupancyOfCLOS(clos int) uint64 { return m.occ[clos] }
func (m *fakeMon) MemTrafficOfCLOS(clos int) uint64   { return m.traffic[clos] }

const (
	testLLCBytes = 1 << 20
	// testPeakBW is the fake machine's DRAM bandwidth; the default
	// config marks a stream streaming above 3.5% of it per core.
	testPeakBW = 8e9
)

// newTestController builds a controller over a fake mount without an
// engine, so tests can drive the control loop epoch by epoch.
func newTestController(t *testing.T) (*Controller, *fakeMon) {
	t.Helper()
	regs, err := cat.NewRegisters(4, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs := resctrl.Mount(regs)
	mon := &fakeMon{occ: map[int]uint64{}, traffic: map[int]uint64{}}
	fs.AttachMonitor(mon)
	return &Controller{
		fs:                 fs,
		win:                resctrl.NewMonWindow(fs),
		policy:             core.DefaultPolicy(testLLCBytes, 20),
		ways:               20,
		llcBytes:           testLLCBytes,
		peakBytesPerSecond: testPeakBW,
	}, mon
}

// Stream 0's group "adapt0" is the first group created on the mount,
// so it occupies CLOS 1 (the root group holds CLOS 0).
const stream0CLOS = 1

// epoch scripts one control epoch for stream 0: trafficDelta fresh
// DRAM bytes and an instantaneous occupancy.
func epoch(t *testing.T, c *Controller, mon *fakeMon, n int, trafficDelta, occ uint64) {
	t.Helper()
	mon.traffic[stream0CLOS] += trafficDelta
	mon.occ[stream0CLOS] = occ
	if err := c.OnEpoch(n); err != nil {
		t.Fatalf("epoch %d: %v", n, err)
	}
}

const (
	// Comfortably above/below the default thresholds: hotTraffic over a
	// 100 µs epoch is ~1.3 GB/s on one core, well above 3.5% of
	// testPeakBW; the occupancy split is at 5% of the 1 MiB test LLC.
	hotTraffic = testLLCBytes / 8
	bigOcc     = testLLCBytes / 2
	tinyOcc    = testLLCBytes / 1024
)

func narrowMask() cat.WayMask { return cat.PortionMask(20, 0.10) }

// TestBlindStreamingThenSensitive ends before trialInterval epochs,
// so no probation interferes.
func TestBlindStreamingThenSensitive(t *testing.T) {
	c, mon := newTestController(t)
	beginBesideResident(t, c, mon)
	if got := c.SchemataWrites(); got != 0 {
		t.Fatalf("BeginRun on a fresh mount wrote %d times, want 0", got)
	}

	// Two stream-like epochs: hysteresis commits Streaming and
	// confines the stream.
	epoch(t, c, mon, 0, hotTraffic, bigOcc)
	epoch(t, c, mon, 1, hotTraffic, bigOcc)
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("class after 2 hot epochs = %v, want streaming", got)
	}
	if m, err := c.fs.Mask("adapt0"); err != nil || m != narrowMask() {
		t.Fatalf("mask = %v (%v), want %v", m, err, narrowMask())
	}
	if got := c.SchemataWrites(); got != 1 {
		t.Fatalf("writes after confinement = %d, want 1", got)
	}

	// Steady streaming: quiescent epochs are free.
	for e := 2; e < 6; e++ {
		epoch(t, c, mon, e, hotTraffic, bigOcc)
	}
	if got := c.SchemataWrites(); got != 1 {
		t.Fatalf("steady epochs performed %d extra writes", got-1)
	}

	// The stream settles onto a resident working set: traffic stops,
	// occupancy stays. Telemetry overrides the earlier verdict.
	epoch(t, c, mon, 6, 0, bigOcc)
	epoch(t, c, mon, 7, 0, bigOcc)
	if got := c.ClassOf(0); got != CacheSensitive {
		t.Fatalf("class after quiet epochs = %v, want cache-sensitive", got)
	}
	if m, _ := c.fs.Mask("adapt0"); m != cat.FullMask(20) {
		t.Fatalf("mask = %v, want full", m)
	}

	// Quiescent again: no further writes, ever.
	w := c.SchemataWrites()
	for e := 8; e < 16; e++ {
		epoch(t, c, mon, e, 0, bigOcc)
	}
	if got := c.SchemataWrites(); got != w {
		t.Fatalf("quiescent epochs performed %d writes", got-w)
	}
}

func TestTrialRecoversThrashingStream(t *testing.T) {
	c, mon := newTestController(t)
	beginBesideResident(t, c, mon)
	// Annotated polluting: confined immediately, before any epoch.
	if _, err := c.GroupFor(0, core.Polluting, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	if m, _ := c.fs.Mask("adapt0"); m != narrowMask() {
		t.Fatalf("hinted mask = %v, want %v", m, narrowMask())
	}

	// The job is actually reuse-heavy, but inside the narrow slice it
	// thrashes: traffic stays hot, indistinguishable from a scan.
	flip := 0
	e := 0
	for ; e < 2*trialInterval; e++ {
		if c.streams[0].trialLeft > 0 {
			break // probation: the mask was widened
		}
		epoch(t, c, mon, e, hotTraffic, testLLCBytes/8)
	}
	if c.streams[0].trialLeft == 0 {
		t.Fatal("confined stream never went on probation")
	}
	if m, _ := c.fs.Mask("adapt0"); m != cat.FullMask(20) {
		t.Fatal("probation did not widen the mask")
	}
	// With the cache back, the working set fits: one loading epoch,
	// then traffic collapses.
	epoch(t, c, mon, e, hotTraffic, bigOcc)
	epoch(t, c, mon, e+1, 0, bigOcc)
	if got := c.ClassOf(0); got != CacheSensitive {
		t.Fatalf("class after probation = %v, want cache-sensitive", got)
	}
	if m, _ := c.fs.Mask("adapt0"); m != cat.FullMask(20) {
		t.Fatal("recovered stream did not keep the full mask")
	}
	if bound := trialInterval + trialLength + hysteresis; e+1-flip > bound {
		t.Fatalf("recovery took %d epochs, bound %d", e+1-flip, bound)
	}
}

func TestTrialConfirmsStreamingAndBacksOff(t *testing.T) {
	c, mon := newTestController(t)
	beginBesideResident(t, c, mon)
	if _, err := c.GroupFor(0, core.Polluting, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	// A genuine scan: hot through confinement and both probations.
	const epochs = 4 * trialInterval
	widenEpochs := []int{}
	for e := 0; e < epochs; e++ {
		before := c.streams[0].trialLeft
		epoch(t, c, mon, e, hotTraffic, bigOcc)
		if before == 0 && c.streams[0].trialLeft > 0 {
			widenEpochs = append(widenEpochs, e)
		}
	}
	if len(widenEpochs) < 2 {
		t.Fatalf("saw %d probations in %d epochs, want at least 2", len(widenEpochs), epochs)
	}
	// Each probation ends narrow again.
	if m, _ := c.fs.Mask("adapt0"); m != narrowMask() {
		t.Fatalf("mask after probations = %v, want %v", m, narrowMask())
	}
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("class = %v, want streaming", got)
	}
	// Backoff: the second interval is at least twice the first.
	first := widenEpochs[1] - widenEpochs[0]
	if first < 2*trialInterval-1 {
		t.Fatalf("probation interval %d did not back off (base %d)",
			first, trialInterval)
	}
	// The transition log shows the widen/narrow pairs as trials.
	var widens, narrows int
	for _, tr := range c.Transitions() {
		if !tr.Trial {
			continue
		}
		if tr.Mask == cat.FullMask(20) {
			widens++
		}
		if tr.Mask == narrowMask() {
			narrows++
		}
	}
	if widens < 2 || narrows < 2 {
		t.Fatalf("trial transitions widen=%d narrow=%d, want ≥2 each", widens, narrows)
	}
}

func TestHintSeeding(t *testing.T) {
	c, _ := newTestController(t)
	if err := beginRun(c, "s"); err != nil {
		t.Fatal(err)
	}
	// Sensitive is the unannotated default: no information, full mask.
	if _, err := c.GroupFor(0, core.Sensitive, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	if got := c.ClassOf(0); got != Unknown {
		t.Fatalf("class after default annotation = %v, want unknown", got)
	}
	// Polluting confines immediately.
	if _, err := c.GroupFor(0, core.Polluting, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("class after polluting annotation = %v, want streaming", got)
	}
	// A repeated unannotated phase does not un-confine: Sensitive
	// carries no information either way.
	if _, err := c.GroupFor(0, core.Sensitive, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("default annotation overrode telemetry seed: %v", got)
	}
	// Depends follows the bit-vector heuristic, both directions.
	big := core.Footprint{BitVectorBytes: testLLCBytes / 2}
	if _, err := c.GroupFor(0, core.Depends, big); err != nil {
		t.Fatal(err)
	}
	if got := c.ClassOf(0); got != CacheSensitive {
		t.Fatalf("class for LLC-sized bit vector = %v, want cache-sensitive", got)
	}
	small := core.Footprint{BitVectorBytes: testLLCBytes / 1024}
	if _, err := c.GroupFor(0, core.Depends, small); err != nil {
		t.Fatal(err)
	}
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("class for tiny bit vector = %v, want streaming", got)
	}
	// Unknown streams are rejected.
	if _, err := c.GroupFor(7, core.Sensitive, core.Footprint{}); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
	// Transitions seeded by annotations carry epoch -1.
	for _, tr := range c.Transitions() {
		if tr.Epoch != -1 {
			t.Fatalf("annotation-seeded transition has epoch %d", tr.Epoch)
		}
	}
}

func TestBeginRunResetsState(t *testing.T) {
	c, mon := newTestController(t)
	if err := beginRun(c, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GroupFor(0, core.Polluting, core.Footprint{}); err != nil {
		t.Fatal(err)
	}
	epoch(t, c, mon, 0, hotTraffic, bigOcc)
	if len(c.Transitions()) == 0 {
		t.Fatal("expected transitions in first run")
	}
	// A second run starts clean: full masks, empty history.
	if err := beginRun(c, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if m, _ := c.fs.Mask("adapt0"); m != cat.FullMask(20) {
		t.Fatalf("mask after BeginRun = %v, want full", m)
	}
	if got := c.ClassOf(0); got != Unknown {
		t.Fatalf("class after BeginRun = %v, want unknown", got)
	}
	if got := len(c.Transitions()); got != 0 {
		t.Fatalf("history after BeginRun has %d entries", got)
	}
}

// epochAt scripts one epoch for an arbitrary stream's CLOS without
// advancing the other streams' counters.
func epochBoth(t *testing.T, c *Controller, mon *fakeMon, n int, d0, o0, d1, o1 uint64) {
	t.Helper()
	mon.traffic[1] += d0
	mon.occ[1] = o0
	mon.traffic[2] += d1
	mon.occ[2] = o1
	if err := c.OnEpoch(n); err != nil {
		t.Fatalf("epoch %d: %v", n, err)
	}
}

func TestBeneficiaryGate(t *testing.T) {
	c, mon := newTestController(t)

	// Scan ∥ scan: two streaming streams, nobody with a working set to
	// protect — neither gets confined.
	if err := beginRun(c, "a", "b"); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 6; e++ {
		epochBoth(t, c, mon, e, hotTraffic, tinyOcc, hotTraffic, tinyOcc)
	}
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("stream 0 class = %v, want streaming", got)
	}
	if m, _ := c.fs.Mask("adapt0"); m != cat.FullMask(20) {
		t.Fatalf("stream 0 confined to %v with no beneficiary", m)
	}
	if m, _ := c.fs.Mask("adapt1"); m != cat.FullMask(20) {
		t.Fatalf("stream 1 confined to %v with no beneficiary", m)
	}

	// Stream 1 settles onto a resident working set: now confining the
	// scan protects it.
	for e := 6; e < 10; e++ {
		epochBoth(t, c, mon, e, hotTraffic, tinyOcc, 0, bigOcc)
	}
	if got := c.ClassOf(1); got != CacheSensitive {
		t.Fatalf("stream 1 class = %v, want cache-sensitive", got)
	}
	if m, _ := c.fs.Mask("adapt0"); m != narrowMask() {
		t.Fatalf("scan not confined (%v) once a beneficiary appeared", m)
	}
	// The sensitive stream itself keeps the full cache.
	if m, _ := c.fs.Mask("adapt1"); m != cat.FullMask(20) {
		t.Fatalf("beneficiary stream confined to %v", m)
	}

	// Single-stream run: a lone scan is never confined, however hot.
	if err := beginRun(c, "solo"); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 8; e++ {
		epoch(t, c, mon, e, hotTraffic, tinyOcc)
	}
	if got := c.ClassOf(0); got != Streaming {
		t.Fatalf("solo class = %v, want streaming", got)
	}
	if m, _ := c.fs.Mask("adapt0"); m != cat.FullMask(20) {
		t.Fatalf("isolated stream confined to %v", m)
	}
}

func TestClassify(t *testing.T) {
	c, _ := newTestController(t)
	cases := []struct {
		name string
		d    resctrl.MonDelta
		want Class
	}{
		{"hot traffic", resctrl.MonDelta{LLCOccupancyBytes: bigOcc, MemBytesDelta: hotTraffic}, Streaming},
		{"hot traffic, empty cache", resctrl.MonDelta{LLCOccupancyBytes: 0, MemBytesDelta: hotTraffic}, Streaming},
		{"resident set", resctrl.MonDelta{LLCOccupancyBytes: bigOcc, MemBytesDelta: 0}, CacheSensitive},
		{"idle", resctrl.MonDelta{LLCOccupancyBytes: tinyOcc, MemBytesDelta: 0}, Neutral},
	}
	for _, tc := range cases {
		if got := c.classify(tc.d, 1); got != tc.want {
			t.Errorf("%s: classify(%+v) = %v, want %v", tc.name, tc.d, got, tc.want)
		}
	}
}
