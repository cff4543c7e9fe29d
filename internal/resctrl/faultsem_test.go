package resctrl

import (
	"errors"
	"testing"

	"cachepart/internal/cat"
)

// TestMonWindowGapSkipsNotZeroFills is the telemetry-gap contract: a
// failed sample must not move the baseline, so the first success after
// an outage reports the whole spanned delta with the gap length —
// rather than a zero-filled or corrupted window.
func TestMonWindowGapSkipsNotZeroFills(t *testing.T) {
	regs, err := cat.NewRegisters(4, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := Mount(regs)
	mon := &settableMonitor{occ: map[int]uint64{}, traffic: map[int]uint64{}}
	fs.AttachMonitor(mon)
	if err := fs.MakeGroup("g"); err != nil { // CLOS 1
		t.Fatal(err)
	}
	w := NewMonWindow(fs)

	mon.traffic[1] = 1000
	if _, err := w.Sample("g"); err != nil {
		t.Fatal(err)
	}

	// Outage: two sampling attempts fail mid-window while traffic
	// continues. Detaching the monitor is the scripted "Unavailable".
	fs.AttachMonitor(nil)
	for i := 0; i < 2; i++ {
		mon.traffic[1] += 300
		if _, err := w.Sample("g"); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("gap sample %d error = %v, want ErrUnavailable", i, err)
		}
	}
	if got := w.Gaps("g"); got != 2 {
		t.Errorf("Gaps(g) = %d, want 2", got)
	}

	// Recovery: the delta spans the gap — 600 unobserved plus 100 new
	// bytes against the pre-outage baseline of 1000, not against a
	// zero-filled or advanced baseline.
	fs.AttachMonitor(mon)
	mon.traffic[1] += 100
	d, err := w.Sample("g")
	if err != nil {
		t.Fatal(err)
	}
	if d.MemBytesDelta != 700 {
		t.Errorf("post-gap delta = %d, want 700 (baseline held across gap)", d.MemBytesDelta)
	}
	if d.Gap != 2 {
		t.Errorf("post-gap Gap = %d, want 2", d.Gap)
	}
	if got := w.Gaps("g"); got != 0 {
		t.Errorf("Gaps(g) after recovery = %d, want 0", got)
	}

	// The next sample is an ordinary one-epoch window again.
	mon.traffic[1] += 50
	d, err = w.Sample("g")
	if err != nil {
		t.Fatal(err)
	}
	if d.MemBytesDelta != 50 || d.Gap != 0 {
		t.Errorf("steady sample after recovery = %+v, want delta 50, gap 0", d)
	}
}

// TestMonitorSentinelsDistinguishFaults pins the two failure shapes of
// a real mon_data read: "Unavailable" (RMID not yet tracked —
// transient) and "Error" (broken domain counter — sticky), both
// distinguishable with errors.Is.
func TestMonitorSentinelsDistinguishFaults(t *testing.T) {
	fs, _ := mountTest(t)
	_, err := fs.ReadMonData(RootGroup)
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("detached-monitor read error = %v, want ErrUnavailable", err)
	}
	if errors.Is(err, ErrCounter) {
		t.Error("detached-monitor read reports a counter error")
	}
	if errors.Is(ErrCounter, ErrUnavailable) {
		t.Error("sentinels must be distinct")
	}
}
