package resctrl

// MonDelta is one monitoring window's worth of telemetry for a control
// group: the instantaneous LLC occupancy and the DRAM traffic
// accumulated since the previous successful sample of the same group.
type MonDelta struct {
	// LLCOccupancyBytes mirrors llc_occupancy: an instantaneous
	// reading, not a delta.
	LLCOccupancyBytes uint64
	// MemBytesDelta is the growth of mbm_total_bytes since the previous
	// successful sample — over Gap+1 windows when samples were missed.
	MemBytesDelta uint64
	// Gap counts the consecutive failed Samples of this group
	// immediately before this one. A consumer deriving a rate must
	// divide the delta by Gap+1 window lengths, or the missed windows'
	// traffic is misread as one window's burst.
	Gap int
}

// MonReader is the slice of a control plane a monitoring window needs.
// Both *FS and a fault-injecting wrapper satisfy it (via Plane).
type MonReader interface {
	ReadMonData(groupName string) (MonData, error)
}

// MonWindow converts the cumulative mbm_total_bytes counter into
// per-window deltas, the quantity a feedback controller actually
// consumes. The kernel's MBM files only ever grow (modulo hardware
// counter width); every consumer re-deriving "bytes since my last
// read" is the boilerplate this helper centralises.
//
// Failed reads — the kernel's "Unavailable"/"Error" files — are
// *skipped*, not zero-filled: the remembered baseline survives the gap,
// so the first successful sample after it yields the true accumulated
// delta (flagged with MonDelta.Gap) instead of a bogus zero followed by
// a bogus burst.
//
// A MonWindow is driven from one control loop, like the plane it
// reads.
type MonWindow struct {
	fs MonReader
	// last holds the cumulative traffic reading per group at its
	// previous successful Sample. Accessed by key only, never iterated.
	last map[string]uint64
	// gaps counts consecutive failed Samples per group since the last
	// successful one. Accessed by key only, never iterated.
	gaps map[string]int
}

// NewMonWindow opens a monitoring window over a control plane.
func NewMonWindow(fs MonReader) *MonWindow {
	return &MonWindow{fs: fs, last: make(map[string]uint64), gaps: make(map[string]int)}
}

// Sample reads a group's monitoring files and returns the delta since
// the previous successful Sample of that group. The first sample of a
// group measures from zero, matching counters that start at zero when
// monitoring begins. A cumulative reading below the remembered
// baseline means the counters were reset (the simulator zeroes them
// between runs; real hardware wraps): the window restarts from zero so
// a reset never produces a huge bogus delta. A failed read leaves the
// baseline untouched and counts toward the next success's Gap.
func (w *MonWindow) Sample(group string) (MonDelta, error) {
	md, err := w.fs.ReadMonData(group)
	if err != nil {
		w.gaps[group]++
		return MonDelta{}, err
	}
	gap := w.gaps[group]
	w.gaps[group] = 0
	prev := w.last[group]
	delta := md.MemTotalBytes - prev
	if md.MemTotalBytes < prev {
		delta = md.MemTotalBytes
	}
	w.last[group] = md.MemTotalBytes
	return MonDelta{
		LLCOccupancyBytes: md.LLCOccupancyBytes,
		MemBytesDelta:     delta,
		Gap:               gap,
	}, nil
}

// Gaps reports the consecutive failed Samples of a group since its last
// successful one — the Gap the next successful Sample will carry.
func (w *MonWindow) Gaps(group string) int { return w.gaps[group] }

// Reset forgets every baseline and pending gap, so the next Sample of
// each group measures from zero again. Call it when the backing
// counters are known to have been zeroed.
func (w *MonWindow) Reset() {
	clear(w.last)
	clear(w.gaps)
}
