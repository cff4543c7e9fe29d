package engine

import (
	"fmt"
	"math/rand"

	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// kernelSlot tracks one worker's kernel within the current phase.
type kernelSlot struct {
	kernel exec.Kernel
	done   bool
	// ticksPerRow is an EWMA of the kernel's cost used to budget
	// time-uniform slices.
	ticksPerRow float64
}

// budgetFor sizes a slice so it advances about target ticks.
func (s *kernelSlot) budgetFor(target int64, maxRows int) int {
	if s.ticksPerRow <= 0 {
		return 16 // cautious first slice; cost learned from it
	}
	b := int(float64(target) / s.ticksPerRow)
	if b < 1 {
		return 1
	}
	if b > maxRows {
		return maxRows
	}
	return b
}

// observe folds a finished slice into the cost estimate.
func (s *kernelSlot) observe(rows int, ticks int64) {
	if rows <= 0 {
		return
	}
	sample := float64(ticks) / float64(rows)
	if s.ticksPerRow <= 0 {
		s.ticksPerRow = sample
		return
	}
	s.ticksPerRow = 0.75*s.ticksPerRow + 0.25*sample
}

// stream is the state of one core group for the length of a run: a
// StreamSpec of Run or a group of RunOpenLoop.
type stream struct {
	// spec holds the group's cores and the query in flight on them, which
	// a fed run replaces at every dispatch.
	spec StreamSpec
	// idx is the stream's position in the run's list, the identity an
	// attached Controller tracks telemetry under.
	idx      int
	rng      *rand.Rand
	phases   []Phase
	phaseIdx int
	slots    []kernelSlot

	rows      int64        // counted rows: of the run, or in a fed run of the execution in flight
	execStart int64        // tick the in-flight execution began
	queries   []QueryStamp // every recorded execution, in completion order

	// The tally at the warm-up boundary, which the results subtract.
	rowsAtWarm    int64
	queriesAtWarm int // executions recorded before warm-up
	// statsAt is the stream's counters where its measurement began: the
	// warm-up boundary, or in a fed run the dispatch of the execution in
	// flight.
	statsAt cachesim.CoreStats

	// A fed run's group is idle between a completion and the next
	// dispatch; wake is the tick to ask the feed at. A retired group
	// stays idle and is never asked again.
	sub       Submission
	idle      bool
	retired   bool
	wake      int64
	busyTicks int64
}

// runState is what a front end hands the loop, the one scheduler under
// every run. What Run and RunOpenLoop differ in is data here — the
// horizon and the feed — not a scheduler of their own.
type runState struct {
	streams []*stream
	// bindings ties every worker core to its stream and kernel slot, in
	// the order equal clocks are served: stream by stream and slot by
	// slot, re-sorted by core for a closed run.
	bindings []runnable
	ctxs     []*exec.Ctx

	// The epoch clock: its length and the next boundary. The loop
	// calls an attached Controller once per boundary crossed.
	epochTicks int64
	nextEpoch  int64

	// The loop returns once the least-advanced core reaches durTicks
	// (MaxInt64: once the feed has retired every group); results cover
	// the window from warmTicks on.
	durTicks  int64
	warmTicks int64
	warmed    bool

	// feed is nil when a stream that finishes an execution plans its
	// next one itself; otherwise the stream records a Completion (shown
	// to obs, the feed's optional callback), goes idle, and the feed is
	// asked for the group's next Submission.
	feed Feed
	obs  CompletionObserver
	done []Completion
}

// checkCores rejects core groups that are empty, out of the machine's
// range or overlapping.
func (e *Engine) checkCores(specs []StreamSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("engine: no streams")
	}
	seen := make(map[int]bool)
	for i, s := range specs {
		if len(s.Cores) == 0 {
			return fmt.Errorf("engine: stream %d has no cores", i)
		}
		for _, c := range s.Cores {
			if c < 0 || c >= e.m.Cores() {
				return fmt.Errorf("engine: core %d out of range", c)
			}
			if seen[c] {
				return fmt.Errorf("engine: core %d assigned twice", c)
			}
			seen[c] = true
		}
	}
	return nil
}

// begin is the prologue of every run: reset the machine and the fault
// accounting so runs are independent and deterministic, start the
// controller's run and the epoch clock, and build one stream per spec.
// Nothing before it may touch the engine; everything a front end
// validates, it validates first.
func (e *Engine) begin(rs *runState, specs []StreamSpec, infos []StreamInfo) error {
	e.m.Reset()
	e.resetFaultState(len(specs))
	if e.ctrl != nil {
		if err := e.ctrl.BeginRun(infos); err != nil {
			return err
		}
	}
	rs.epochTicks = max(e.m.Ticks(ControlEpochSeconds), 1)
	rs.nextEpoch = rs.epochTicks
	rs.streams = make([]*stream, len(specs))
	for i, spec := range specs {
		rs.streams[i] = &stream{spec: spec, idx: i}
		for slot, c := range spec.Cores {
			rs.bindings = append(rs.bindings, runnable{st: rs.streams[i], slot: slot, core: c})
		}
	}
	rs.ctxs = make([]*exec.Ctx, e.m.Cores())
	for c := range rs.ctxs {
		rs.ctxs[c] = e.Ctx(c)
	}
	return nil
}

// prewarm touches the regions q declares (Prewarmer) once, a line at a
// time round-robin over cores, with whatever masks are already applied.
func (e *Engine) prewarm(q Query, cores []int) {
	pw, ok := q.(Prewarmer)
	if !ok {
		return
	}
	for _, region := range pw.PrewarmRegions(len(cores)) {
		for i, off := 0, uint64(0); off < region.Size; i, off = i+1, off+memory.LineSize {
			e.m.Access(cores[i%len(cores)], region.Addr(off), false)
		}
	}
}

// runnable is one armed, unfinished kernel slot: the stream it belongs
// to, its slot there and the core it runs on.
type runnable struct {
	st   *stream
	slot int
	core int
}

// runnables lists what can take the next slice, in the order equal
// clocks are served.
func (rs *runState) runnables(run []runnable) []runnable {
	for _, b := range rs.bindings {
		if !b.st.idle && b.st.slots[b.slot].kernel != nil && !b.st.slots[b.slot].done {
			run = append(run, b)
		}
	}
	return run
}

// leastAdvanced returns the runnable slot whose core clock is lowest,
// and that clock; ok is false when nothing can run. The first of equal
// clocks wins, so the order of run is the tie-break. The loop calls it
// once per slice, which is why it keeps run as a dense list — rebuilt
// only when a slot finishes or a group is dispatched — and does not walk
// bindings, streams and slots here.
func leastAdvanced(m *cachesim.Machine, run []runnable) (r runnable, now int64, ok bool) {
	min := -1
	for i := range run {
		if t := m.Now(run[i].core); min < 0 || t < now {
			min, now = i, t
		}
	}
	if min < 0 {
		return runnable{}, 0, false
	}
	return run[min], now, true
}

// earliestIdle returns the idle group with the lowest wake tick, the
// first listed of equal ticks; nil when every group is busy or retired.
func (rs *runState) earliestIdle() *stream {
	var first *stream
	for _, st := range rs.streams {
		if st.idle && !st.retired && (first == nil || st.wake < first.wake) {
			first = st
		}
	}
	return first
}

// snapshotWarm records the warm-up boundary state.
func (rs *runState) snapshotWarm(e *Engine) {
	rs.warmed = true
	for _, st := range rs.streams {
		st.rowsAtWarm = st.rows
		st.queriesAtWarm = len(st.queries)
		st.statsAt = e.coreStats(st.spec.Cores)
	}
}

// coreStats sums the cores' counters at the current instant.
func (e *Engine) coreStats(cores []int) cachesim.CoreStats {
	var s cachesim.CoreStats
	for _, c := range cores {
		s.Add(e.m.Stats(c))
	}
	return s
}

// clock returns the cores' synchronised clock: the latest of them.
func (e *Engine) clock(cores []int) int64 {
	var t int64
	for _, c := range cores {
		if now := e.m.Now(c); now > t {
			t = now
		}
	}
	return t
}

// syncTo advances every one of the cores to t, or to their own
// synchronised clock if that is later, and returns the tick they now
// share.
func (e *Engine) syncTo(cores []int, t int64) int64 {
	if now := e.clock(cores); now > t {
		t = now
	}
	for _, c := range cores {
		e.m.AdvanceTo(c, t)
	}
	return t
}

// loop interleaves the run's cores in virtual time, one scheduling
// slice at a time on the globally least-advanced core — the only timing
// model there is. Per iteration, in this order: pick the least-advanced
// runnable core (in a fed run, an idle group whose wake tick is no later
// is dispatched instead, and the pick repeated); snapshot the warm-up
// boundary when the pick crosses it; return when it reaches the
// horizon; call the controller once per epoch boundary it has crossed;
// run the slice; and if that finished the phase's last kernel, take the
// stream through its barrier. The front end has planned and prewarmed
// by now; the loop first rewinds the clocks and counters that cost, so
// the measured window starts at tick zero in steady state.
func (e *Engine) loop(rs *runState) error {
	e.m.ZeroClocksAndStats()
	run := rs.runnables(nil)
	for {
		r, now, ok := leastAdvanced(e.m, run)
		if rs.feed != nil {
			if st := rs.earliestIdle(); st != nil && (!ok || st.wake <= now) {
				if err := e.dispatch(rs, st); err != nil {
					return err
				}
				run = rs.runnables(run[:0])
				continue
			}
			if !ok {
				return nil // every group retired and drained
			}
		}
		if !ok {
			return fmt.Errorf("engine: deadlock — no runnable kernels")
		}
		if !rs.warmed && now >= rs.warmTicks {
			rs.snapshotWarm(e)
		}
		if now >= rs.durTicks {
			return nil
		}
		for ; now >= rs.nextEpoch; rs.nextEpoch += rs.epochTicks {
			if e.ctrl != nil {
				if err := e.onEpoch(int(rs.nextEpoch/rs.epochTicks)-1, r.core); err != nil {
					return err
				}
			}
		}
		done, err := e.stepSlice(rs, r.st, r.slot, r.core)
		if err != nil {
			return err
		}
		if done {
			if r.st.phaseDone() {
				if err := e.barrier(rs, r.st, r.core); err != nil {
					return err
				}
			}
			run = rs.runnables(run[:0])
		}
	}
}

// stepSlice runs one scheduling slice of the stream's slot on a core —
// budget, Step, cost observation, row count — and reports whether the
// slice finished the slot's kernel; the caller then asks the stream
// whether that was the last one running in the phase. A kernel that
// neither progresses nor finishes is an error.
func (e *Engine) stepSlice(rs *runState, st *stream, slotIdx, core int) (done bool, err error) {
	slot := &st.slots[slotIdx]
	budget := slot.budgetFor(sliceTicks, quantumRows)
	before := e.m.Now(core)
	rows, done := slot.kernel.Step(rs.ctxs[core], budget)
	slot.observe(rows, e.m.Now(core)-before)
	if st.phases[st.phaseIdx].CountRows {
		st.rows += int64(rows)
	}
	if done {
		slot.done = true
		return true, nil
	}
	if rows == 0 {
		return false, fmt.Errorf("engine: kernel %q/%s made no progress",
			st.spec.Query.Name(), st.phases[st.phaseIdx].Name)
	}
	return false, nil
}

// phaseDone reports whether every kernel of the current phase
// finished.
func (st *stream) phaseDone() bool {
	for i := range st.slots {
		if st.slots[i].kernel != nil && !st.slots[i].done {
			return false
		}
	}
	return true
}

// barrier ends the stream's phase at tick t — its cores' synchronised
// clock, to which the early finishers idle. It arms the next phase, or
// completes the execution: a fed stream reports it and goes idle until
// the feed is asked at t, any other stream plans its next execution
// here and now. That re-plan must not wait for t to
// become the earliest event as a dispatch does: Plan draws from the
// stream's rng and allocates in the address space, and arming phase 0
// writes masks through the control plane and, under fault injection,
// draws from the plane's rng, so the order in which the streams'
// re-plans happen relative to every other core's slices is part of
// every result the closed loops have ever produced.
func (e *Engine) barrier(rs *runState, st *stream, core int) error {
	t := e.syncTo(st.spec.Cores, e.m.Now(core))
	st.phaseIdx++
	if st.phaseIdx < len(st.phases) {
		return e.armPhase(st)
	}
	if rs.feed != nil {
		e.complete(rs, st, t)
		return nil
	}
	st.queries = append(st.queries, QueryStamp{Start: st.execStart, Done: t})
	st.execStart = t
	return e.plan(st)
}

// plan asks the stream's query for one execution's phases, checks them
// against the stream's core count and arms phase 0.
func (e *Engine) plan(st *stream) error {
	q := st.spec.Query
	phases, err := q.Plan(len(st.spec.Cores), st.rng)
	if err != nil {
		return err
	}
	if len(phases) == 0 {
		return fmt.Errorf("engine: query %q planned no phases", q.Name())
	}
	for _, ph := range phases {
		if len(ph.Kernels) == 0 {
			return fmt.Errorf("engine: phase %q of %q has no kernels", ph.Name, q.Name())
		}
		if len(ph.Kernels) > len(st.spec.Cores) {
			return fmt.Errorf("engine: phase %q of %q has %d kernels for %d cores",
				ph.Name, q.Name(), len(ph.Kernels), len(st.spec.Cores))
		}
	}
	st.phases = phases
	st.phaseIdx = 0
	return e.armPhase(st)
}

// armPhase binds the current phase's kernels to the stream's slots and
// applies the phase's CUID to each participating worker. A phase that
// never named its CUID is rejected here, once per phase start.
func (e *Engine) armPhase(st *stream) error {
	ph := st.phases[st.phaseIdx]
	if ph.CUID == core.Unset {
		return unsetCUID(st.spec.Query, ph)
	}
	st.slots = make([]kernelSlot, len(st.spec.Cores))
	for i := range ph.Kernels {
		st.slots[i] = kernelSlot{kernel: ph.Kernels[i]}
		if err := e.applyJob(st.spec.Cores[i], st.idx, ph.CUID, ph.Footprint); err != nil {
			return err
		}
	}
	return nil
}
