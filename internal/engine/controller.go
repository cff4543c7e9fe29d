package engine

import "cachepart/internal/core"

// Controller is an online cache-partitioning controller driven by the
// engine's virtual clock (internal/adapt implements one). While a
// controller is attached the engine routes every job's worker into the
// resctrl group the controller chooses instead of the static policy's
// mask group, and invokes OnEpoch once per control epoch of simulated
// time — the hook an adaptive scheme uses to reprogram group schemata
// from CMT/MBM telemetry. All callbacks run inside the serial
// virtual-time scheduling loop, so a controller needs no locking of
// its own and its decisions are deterministic for a given seed.
type Controller interface {
	// BeginRun is called once per Run or RunOpenLoop, directly after
	// the machine reset and before any job placement, describing the
	// streams (of an open loop: the core groups) about to execute —
	// the point where the controller sets up its per-stream control
	// groups and forgets stale telemetry.
	// Machine counters are rewound again after prewarming; a controller
	// sampling through resctrl.MonWindow absorbs that reset.
	BeginRun(streams []StreamInfo) error
	// GroupFor chooses the resctrl group for a job of the given stream.
	// The job's CUID annotation and footprint hint are passed through
	// as priors the controller may consult or ignore. Returning the
	// empty string falls back to the static policy path.
	GroupFor(stream int, cuid core.CUID, fp core.Footprint) (string, error)
	// OnEpoch runs one control step; epoch counts from 0 within the
	// run. Schemata writes the controller performs here are charged to
	// the core whose progress crossed the epoch boundary.
	OnEpoch(epoch int) error
}

// StreamInfo describes one stream of a run to a controller.
type StreamInfo struct {
	Name string
	// Cores is the number of worker cores executing the stream.
	// Telemetry normalized per core stays comparable across machine
	// sizes.
	Cores int
}

// ControlEpochSeconds is the control epoch in simulated time: an
// attached controller is called back once per epoch. 100 µs matches
// the paper's observation that mask updates cost tens of microseconds
// of kernel interaction: epochs are long enough that even an epoch
// with a mask write costs well under one percent of it.
const ControlEpochSeconds = 100e-6

// AttachController connects an online controller to the engine; during
// runs it is called back every ControlEpochSeconds of simulated time.
func (e *Engine) AttachController(c Controller) { e.ctrl = c }

// DetachController removes the attached controller, restoring the
// static policy path.
func (e *Engine) DetachController() { e.ctrl = nil }

// onEpoch runs the attached controller's step for one epoch whose
// boundary the core's progress crossed. Real schemata writes performed
// by the controller count as mask writes and charge the modelled
// kernel-interaction overhead to that core, so an active controller is
// never free while a quiescent one costs nothing.
func (e *Engine) onEpoch(epoch, coreID int) error {
	before := e.fs.Writes()
	if err := e.ctrl.OnEpoch(epoch); err != nil {
		return err
	}
	if w := e.fs.Writes() - before; w > 0 {
		e.maskWrites += w
		e.m.Compute(coreID, int64(w)*DefaultMaskOverheadCycles, uint64(w))
	}
	return nil
}

// applyJob routes a job's worker into its resctrl group: through the
// attached controller when one is present, through the static
// CUID→mask policy otherwise. An instance-wide way limit overrides
// both, as in applyCUID.
func (e *Engine) applyJob(coreID, streamIdx int, cuid core.CUID, fp core.Footprint) error {
	if e.ctrl != nil && e.limitWays == 0 {
		group, err := e.ctrl.GroupFor(streamIdx, cuid, fp)
		if err != nil {
			return err
		}
		if group != "" {
			return e.placeWorker(coreID, streamIdx, group)
		}
	}
	return e.applyCUID(coreID, streamIdx, cuid, fp)
}
