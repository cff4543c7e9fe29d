package adapt

import (
	"errors"
	"fmt"

	"cachepart/internal/cat"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/resctrl"
)

// Controller implements engine.Controller: one resctrl monitoring
// group per stream, sampled and reclassified every control epoch.
// Build one with Attach; all methods are driven from the engine's
// serial scheduling loop and must not be called concurrently.
//
// The controller is fault-tolerant by holding course: a monitoring
// read that fails (the kernel's "Unavailable"/"Error" files) keeps the
// stream's class, streak and probation exactly where they were — the
// epoch simply never happened for that stream, which also extends a
// running probation — and a failed schemata write is absorbed and
// retried by the next epoch's natural elision check. A stream whose
// control group cannot be created at all is degraded: the controller
// stops steering it and the engine's static path takes over.
type Controller struct {
	fs     resctrl.Plane
	win    *resctrl.MonWindow
	policy core.Policy

	ways     int
	llcBytes uint64
	// peakBytesPerSecond is the machine's DRAM bandwidth, the yardstick
	// for the streaming classification.
	peakBytesPerSecond float64

	streams []streamState
	// history is the run's transition log, the one record of its
	// schemata writes.
	history []Transition
	// gaps counts failed telemetry samples, writeFailures absorbed
	// schemata-write faults, across the run.
	gaps          int
	writeFailures int
}

// injected reports whether an error is an injected control-plane
// fault (internal/fault) rather than a genuine programming error.
func injected(err error) bool {
	var f interface{ Transient() bool }
	return errors.As(err, &f)
}

// Attach builds a controller over the engine's resctrl mount and
// machine geometry and attaches it. The engine then calls the
// controller back every engine.ControlEpochSeconds of simulated time;
// detach with e.DetachController().
func Attach(e *engine.Engine) *Controller {
	p := e.Policy()
	c := &Controller{
		fs:                 e.ControlPlane(),
		win:                resctrl.NewMonWindow(e.ControlPlane()),
		policy:             p,
		ways:               p.LLCWays,
		llcBytes:           p.LLCBytes,
		peakBytesPerSecond: e.Machine().Config().DRAMBandwidth,
	}
	e.AttachController(c)
	return c
}

// groupName names the monitoring/control group of a stream.
func groupName(stream int) string { return fmt.Sprintf("adapt%d", stream) }

// BeginRun sets up one control group per stream — giving each stream
// its own CLOS and therefore its own CMT/MBM counters — programs them
// all to the full mask, and forgets any state from the previous run.
func (c *Controller) BeginRun(streams []engine.StreamInfo) error {
	c.streams = make([]streamState, len(streams))
	c.history = nil
	c.gaps = 0
	c.writeFailures = 0
	c.win.Reset()
	full := cat.FullMask(c.ways)
	for i := range c.streams {
		st := &c.streams[i]
		st.group = groupName(i)
		st.cores = streams[i].Cores
		if st.cores < 1 {
			st.cores = 1
		}
		st.class = Unknown
		st.prevClass = Unknown
		st.lastHint = Unknown
		st.pending = Unknown
		st.nextTrial = trialInterval
		if _, err := c.fs.Mask(st.group); err != nil {
			// First run on this mount: the group does not exist yet.
			if err := c.fs.MakeGroup(st.group); err != nil {
				if injected(err) {
					// No CLOS for this stream (ENOSPC): give up on
					// steering it. GroupFor falls back to the engine's
					// static path, which degrades safely on its own.
					st.degraded = true
					continue
				}
				return err
			}
		}
		if _, err := c.program(st, full); err != nil {
			return err
		}
	}
	return nil
}

// GroupFor routes every job of a stream into the stream's group. A
// changed annotation re-seeds the stream's class on the spot — the
// phase boundary is exactly when behaviour is announced to change —
// while a repeated annotation is left to telemetry.
func (c *Controller) GroupFor(stream int, cuid core.CUID, fp core.Footprint) (string, error) {
	if stream < 0 || stream >= len(c.streams) {
		return "", fmt.Errorf("adapt: stream %d out of range (run has %d)",
			stream, len(c.streams))
	}
	st := &c.streams[stream]
	if st.degraded {
		return "", nil // static fallback: the controller lost this group
	}
	if hint := c.hintClass(cuid, fp); hint != st.lastHint {
		st.lastHint = hint
		if hint != Unknown && hint != st.class && st.trialLeft == 0 {
			from := st.class
			st.class = hint
			st.pending = hint
			st.streak = 0
			st.sinceTrial = 0
			st.nextTrial = trialInterval
			if err := c.apply(st, stream, -1, from, false); err != nil {
				return "", err
			}
		}
	}
	return st.group, nil
}

// OnEpoch advances the control loop by one epoch: first every stream
// is sampled and (re)classified, then every mask is re-planned — the
// split matters because a stream's mask depends on the *other*
// streams' classes through the beneficiary rule.
func (c *Controller) OnEpoch(epoch int) error {
	for i := range c.streams {
		if c.streams[i].degraded {
			continue
		}
		if err := c.observe(&c.streams[i], i, epoch); err != nil {
			return err
		}
	}
	for i := range c.streams {
		st := &c.streams[i]
		if st.degraded {
			continue
		}
		if st.trialLeft > 0 {
			continue // probation holds the full mask
		}
		trial := st.trialEnded
		st.trialEnded = false
		if err := c.apply(st, i, epoch, st.prevClass, trial); err != nil {
			return err
		}
	}
	return nil
}

// observe samples one stream and advances its classification state.
// A failed sample — an "Unavailable"/"Error" monitoring file — is a
// telemetry gap, not evidence: the stream's class, debounce streak and
// probation countdown all hold exactly where they were (so a running
// probation is extended), and the MonWindow keeps its baseline so the
// next successful sample spans the gap instead of misreading it.
func (c *Controller) observe(st *streamState, stream, epoch int) error {
	d, err := c.win.Sample(st.group)
	if err != nil {
		c.gaps++
		return nil
	}
	obs := c.classify(d, st.cores)

	if st.trialLeft > 0 {
		// Probation: the mask is temporarily full; any epoch observed
		// below the streaming threshold clears the stream.
		st.trialLeft--
		if obs != Streaming {
			st.trialObs = obs
		}
		if st.trialLeft == 0 {
			st.sinceTrial = 0
			if st.trialObs != Unknown {
				// The stream stopped streaming the moment it got cache
				// back: it was thrashing, not scanning. Commit the
				// class observed under the full mask and restart
				// probation from the base interval.
				st.class = st.trialObs
				st.pending = st.trialObs
				st.streak = 0
				st.nextTrial = trialInterval
			} else {
				// Still streaming with the whole cache on offer:
				// confine it again and back off the next probation.
				st.trialEnded = true
				st.nextTrial = min(st.nextTrial*trialBackoff, trialIntervalMax)
			}
		}
		return nil
	}

	// Debounced reclassification.
	switch {
	case obs == st.class:
		st.streak = 0
		st.pending = obs
	case obs == st.pending:
		st.streak++
	default:
		st.pending = obs
		st.streak = 1
	}
	if obs != st.class && st.streak >= hysteresis {
		st.class = obs
		st.streak = 0
		st.sinceTrial = 0
		st.nextTrial = trialInterval
	}

	// Schedule probation for streams that are actually confined; an
	// unconfined streaming stream (no beneficiary) has nothing to
	// probe.
	if st.class == Streaming {
		cur, err := c.fs.Mask(st.group)
		if err != nil {
			return err
		}
		if cur == c.maskFor(Streaming, true) {
			st.sinceTrial++
			if st.sinceTrial >= st.nextTrial {
				st.sinceTrial = 0
				st.trialLeft = trialLength
				st.trialObs = Unknown
				written, err := c.program(st, cat.FullMask(c.ways))
				if err != nil {
					return err
				}
				c.record(Transition{Epoch: epoch, Stream: stream, From: st.class,
					To: st.class, Mask: cat.FullMask(c.ways), Trial: true, Written: written})
			}
		}
	}
	return nil
}

// beneficiary reports whether confining stream i would protect
// anyone: some other stream must hold (or, while still unclassified,
// may hold) a working set in the cache. Without a beneficiary the
// controller leaves even streaming streams unconfined — confinement
// costs the stream a little (prefetched lines evict each other in a
// narrow slice) and buys nothing. In particular an isolated query is
// never confined.
func (c *Controller) beneficiary(i int) bool {
	for j := range c.streams {
		if j == i {
			continue
		}
		if cl := c.streams[j].class; cl == CacheSensitive || cl == Unknown {
			return true
		}
	}
	return false
}

// apply programs the mask planned for a stream's class (elided when
// unchanged) and records the transition; from is the stream's class
// before this step, for the log.
func (c *Controller) apply(st *streamState, stream, epoch int, from Class, trial bool) error {
	mask := c.maskFor(st.class, c.beneficiary(stream))
	written, err := c.program(st, mask)
	if err != nil {
		return err
	}
	c.record(Transition{Epoch: epoch, Stream: stream, From: from,
		To: st.class, Mask: mask, Trial: trial, Written: written})
	st.prevClass = st.class
	return nil
}

// record logs a transition if it changed anything: a real schemata
// write or a class change.
func (c *Controller) record(t Transition) {
	if t.Written || t.From != t.To {
		c.history = append(c.history, t)
	}
}

// Transitions returns the recorded mask reprogrammings of the current
// run, oldest first.
func (c *Controller) Transitions() []Transition {
	out := make([]Transition, len(c.history))
	copy(out, c.history)
	return out
}

// SchemataWrites reports how many schemata writes the controller has
// performed since BeginRun — the number elision keeps at zero across
// quiescent epochs — by counting the Written transitions. The writes
// BeginRun makes to reset every group to the full mask are not logged,
// so not counted.
func (c *Controller) SchemataWrites() int {
	n := 0
	for _, t := range c.history {
		if t.Written {
			n++
		}
	}
	return n
}

// Gaps reports how many telemetry samples failed since BeginRun —
// epochs the controller rode out by holding its last decision.
func (c *Controller) Gaps() int { return c.gaps }

// WriteFailures reports how many schemata writes were absorbed as
// injected faults since BeginRun; each leaves the previous mask in
// place until a later epoch's elision check retries it.
func (c *Controller) WriteFailures() int { return c.writeFailures }

// ClassOf reports a stream's current class.
func (c *Controller) ClassOf(stream int) Class {
	if stream < 0 || stream >= len(c.streams) {
		return Unknown
	}
	return c.streams[stream].class
}
