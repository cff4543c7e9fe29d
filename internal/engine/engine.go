// Package engine is the execution engine the paper retrofits cache
// partitioning into (Section V-C, Figure 8): a pool of job workers,
// one per simulated core, executes operator jobs. Each job carries a
// cache usage identifier (CUID); before a worker runs a job the engine
// maps the CUID to a CAT bitmask via the policy, moves the worker's
// thread id into the matching resctrl group — eliding the write when
// the mask is unchanged — and lets the (simulated) kernel scheduler
// program the core's CLOS.
package engine

import (
	"errors"
	"fmt"

	"cachepart/internal/cachesim"
	"cachepart/internal/cat"
	"cachepart/internal/core"
	"cachepart/internal/exec"
	"cachepart/internal/resctrl"
)

// DefaultMaskOverheadCycles models the kernel interaction cost of
// re-associating a TID with a bitmask. The paper measured under 100 µs
// on its test system; 44k cycles is 20 µs at 2.2 GHz.
const DefaultMaskOverheadCycles = 44_000

// DefaultRetryLimit is how many times a transient control-plane fault
// is retried before the engine gives up on the operation and degrades.
const DefaultRetryLimit = 3

// retryBackoffCycles is the cycle-domain backoff charged to the
// retrying core before its first retry; it doubles per attempt. 11k
// cycles is 5 µs at 2.2 GHz — the order of one failed kernel write.
// Backoff must be virtual time, never wall clock: sleeping for real
// would both stall the simulation and break bit-identical replays.
const retryBackoffCycles = 11_000

// faultTally counts one stream's control-plane trouble within a run.
type faultTally struct {
	retries  int64
	degraded int64
}

// Engine owns the machine, the resctrl mount and the worker pool.
type Engine struct {
	m *cachesim.Machine
	// fs is the control plane the engine programs. Normally the mount
	// itself; experiments interpose a fault injector (internal/fault)
	// via SetControlPlane.
	fs     resctrl.Plane
	policy core.Policy

	// groupOfMask lazily maps a capacity mask to a resctrl group.
	groupOfMask map[cat.WayMask]string

	// tids holds one worker thread id per core.
	tids []int

	// limitWays, when non-zero, limits the whole instance to the first
	// n ways — the Section III-D measurement method used by the
	// micro-benchmarks. It overrides per-job masks.
	limitWays int

	maskWrites int

	// brokenGroups holds groups whose placement writes failed
	// persistently this run; workers bound for them go to the root
	// group instead. Accessed by key only, never iterated.
	brokenGroups map[string]bool
	// streamFaults tallies retries and degraded placements per stream
	// of the current run.
	streamFaults []faultTally

	// ctrl, when non-nil, replaces the static CUID→mask policy with an
	// online controller called back every ControlEpochSeconds of
	// virtual time (see controller.go).
	ctrl Controller
}

// New builds an engine over a machine with the given policy.
func New(m *cachesim.Machine, policy core.Policy) (*Engine, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if policy.LLCWays != m.Config().LLC.Ways {
		return nil, fmt.Errorf("engine: policy for %d ways, machine has %d",
			policy.LLCWays, m.Config().LLC.Ways)
	}
	mount := resctrl.Mount(m.CAT())
	// Cache Monitoring Technology: the machine backs the resctrl
	// monitoring files.
	mount.AttachMonitor(m)
	e := &Engine{
		m:            m,
		fs:           mount,
		policy:       policy,
		groupOfMask:  make(map[cat.WayMask]string),
		brokenGroups: make(map[string]bool),
		tids:         make([]int, m.Cores()),
	}
	e.groupOfMask[cat.FullMask(policy.LLCWays)] = resctrl.RootGroup
	for c := range e.tids {
		e.tids[c] = 1000 + c // worker TIDs, as the engine would know them
	}
	return e, nil
}

// Machine exposes the simulated machine.
func (e *Engine) Machine() *cachesim.Machine { return e.m }

// ControlPlane exposes the resctrl control plane the engine programs,
// for controllers, tests and diagnostics.
func (e *Engine) ControlPlane() resctrl.Plane { return e.fs }

// SetControlPlane replaces the control plane — the hook fault-injection
// experiments use to interpose a wrapper over the mount. Swap planes
// only between runs.
func (e *Engine) SetControlPlane(p resctrl.Plane) error {
	if p == nil {
		return fmt.Errorf("engine: nil control plane")
	}
	e.fs = p
	return nil
}

// Policy returns the active partitioning policy.
func (e *Engine) Policy() core.Policy { return e.policy }

// SetPolicy replaces the policy (e.g. to toggle partitioning between
// experiment arms).
func (e *Engine) SetPolicy(p core.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	e.policy = p
	return nil
}

// MaskWrites reports how many jobs required real mask programming, the
// quantity the redundant-write elision minimises.
func (e *Engine) MaskWrites() int { return e.maskWrites }

// LimitWays restricts the entire instance to the first n LLC ways
// (0 restores the full cache), reproducing the measurement method of
// Section III-D. While a limit is active per-job policy masks are not
// applied.
func (e *Engine) LimitWays(n int) error {
	if n < 0 || n > e.policy.LLCWays {
		return fmt.Errorf("engine: way limit %d out of [0,%d]", n, e.policy.LLCWays)
	}
	e.limitWays = n
	mask := cat.FullMask(e.policy.LLCWays)
	if n > 0 {
		mask = cat.FullMask(n)
	}
	group, err := e.groupFor(0, -1, mask)
	if err != nil {
		return err
	}
	for c := range e.tids {
		if err := e.fs.MoveTask(e.tids[c], group); err != nil {
			return err
		}
		if err := e.fs.Schedule(e.tids[c], c); err != nil {
			return err
		}
	}
	return nil
}

// injectedFault classifies an error from the control plane: injected
// reports whether it is an injected fault (anything carrying the
// Transient method, i.e. internal/fault errors), transient whether a
// retry may clear it. Errors from the plane itself — unknown groups,
// invalid masks — are programming bugs and classify as not injected,
// so they propagate instead of being absorbed by degradation.
func injectedFault(err error) (transient, injected bool) {
	var f interface{ Transient() bool }
	if errors.As(err, &f) {
		return f.Transient(), true
	}
	return false, false
}

// retry runs op, retrying injected transient faults up to the engine's
// retry limit. Each retry charges an exponentially-growing backoff to
// the core in the cycle domain — virtual time, never the wall clock —
// so a flaky control plane costs simulated time without perturbing
// determinism. Persistent faults and genuine errors return
// immediately.
func (e *Engine) retry(coreID, streamIdx int, op func() error) error {
	backoff := int64(retryBackoffCycles)
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		transient, injected := injectedFault(err)
		if !injected || !transient || attempt >= DefaultRetryLimit {
			return err
		}
		e.countRetry(streamIdx)
		e.m.Compute(coreID, backoff, 0)
		backoff *= 2
	}
}

func (e *Engine) countRetry(streamIdx int) {
	if streamIdx >= 0 && streamIdx < len(e.streamFaults) {
		e.streamFaults[streamIdx].retries++
	}
}

func (e *Engine) countDegraded(streamIdx int) {
	if streamIdx >= 0 && streamIdx < len(e.streamFaults) {
		e.streamFaults[streamIdx].degraded++
	}
}

// resetFaultState starts a run's fault accounting from scratch: the
// per-stream tallies are sized for the run and the group breakers are
// forgiven, so one run's persistent faults never leak into the next
// and same-seed runs stay bit-identical.
func (e *Engine) resetFaultState(streams int) {
	e.brokenGroups = make(map[string]bool)
	e.streamFaults = make([]faultTally, streams)
}

// degrade is the last-resort placement: the stream's worker falls back
// to the root group's full mask — isolation is lost, correctness is
// preserved, and the StreamResult counts the degradation. Should even
// the fallback writes fail persistently, the worker simply keeps its
// previous association: masks only ever shape timing, never results,
// so running with a stale CLOS is always safe.
func (e *Engine) degrade(coreID, streamIdx int) error {
	e.countDegraded(streamIdx)
	tid := e.tids[coreID]
	if err := e.retry(coreID, streamIdx, func() error { return e.fs.MoveTask(tid, resctrl.RootGroup) }); err != nil {
		if _, injected := injectedFault(err); injected {
			return nil
		}
		return err
	}
	if err := e.retry(coreID, streamIdx, func() error { return e.fs.Schedule(tid, coreID) }); err != nil {
		if _, injected := injectedFault(err); injected {
			return nil
		}
		return err
	}
	return nil
}

// groupFor returns (creating on demand) the resctrl group programmed
// with the mask. Creation retries transient faults; the existence
// probe keeps a retried MakeGroup from tripping over its own earlier
// success. The mapping is only cached once the group is fully
// programmed, so a failed creation is re-attempted on the next job.
func (e *Engine) groupFor(coreID, streamIdx int, mask cat.WayMask) (string, error) {
	if g, ok := e.groupOfMask[mask]; ok {
		return g, nil
	}
	name := "mask-" + mask.String()
	if _, err := e.fs.Mask(name); err != nil {
		if err := e.retry(coreID, streamIdx, func() error { return e.fs.MakeGroup(name) }); err != nil {
			return "", err
		}
	}
	if err := e.retry(coreID, streamIdx, func() error {
		return e.fs.WriteSchemata(name, resctrl.FormatSchemata(mask))
	}); err != nil {
		return "", err
	}
	e.groupOfMask[mask] = name
	return name, nil
}

// applyCUID prepares a core's worker for a job with the given
// identifier: choose the mask, move the TID into the mask's group and
// let the scheduler program the core. When the mask's group cannot be
// created or programmed because of injected faults, the job runs
// degraded in the root group instead of failing.
func (e *Engine) applyCUID(coreID, streamIdx int, cuid core.CUID, fp core.Footprint) error {
	if e.limitWays > 0 {
		return nil // instance-wide limit active; jobs keep it
	}
	mask := e.policy.MaskFor(cuid, fp)
	group, err := e.groupFor(coreID, streamIdx, mask)
	if err != nil {
		if _, injected := injectedFault(err); injected {
			return e.degrade(coreID, streamIdx)
		}
		return err
	}
	return e.placeWorker(coreID, streamIdx, group)
}

// placeWorker moves a core's worker thread into a resctrl group and
// lets the scheduler program the core's CLOS. The filesystem elides
// redundant moves and associations, so the engine only charges the
// modelled kernel-interaction overhead when real writes occurred.
// Transient faults are retried with cycle-domain backoff; a
// persistently-failing group trips a breaker and the worker degrades
// to the root group. A failed association after a successful move
// leaves the core's CLOS stale — timing-only — and counts as degraded.
func (e *Engine) placeWorker(coreID, streamIdx int, group string) error {
	if e.brokenGroups[group] {
		return e.degrade(coreID, streamIdx)
	}
	tid := e.tids[coreID]
	before := e.fs.Writes()
	if err := e.retry(coreID, streamIdx, func() error { return e.fs.MoveTask(tid, group) }); err != nil {
		if _, injected := injectedFault(err); injected {
			e.brokenGroups[group] = true
			return e.degrade(coreID, streamIdx)
		}
		return err
	}
	if err := e.retry(coreID, streamIdx, func() error { return e.fs.Schedule(tid, coreID) }); err != nil {
		if _, injected := injectedFault(err); injected {
			e.countDegraded(streamIdx)
			return nil
		}
		return err
	}
	if e.fs.Writes() != before {
		e.maskWrites++
		e.m.Compute(coreID, DefaultMaskOverheadCycles, 1)
	}
	return nil
}

// Ctx builds an operator context bound to a core.
func (e *Engine) Ctx(coreID int) *exec.Ctx {
	return &exec.Ctx{M: e.m, Core: coreID}
}
