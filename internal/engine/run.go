package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"cachepart/internal/cachesim"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// Prewarmer is an optional query interface: regions returned are
// touched once before measurement starts (with the phase-0 masks
// already applied), so short measurement windows observe the steady
// state of long-running statements — dictionaries, hash tables and bit
// vectors resident as they would be mid-execution.
type Prewarmer interface {
	PrewarmRegions(cores int) []memory.Region
}

// StreamSpec assigns a query to a set of worker cores. Concurrent
// experiments run several streams on disjoint core sets sharing the
// LLC and memory bandwidth, mirroring the paper's co-run setup.
type StreamSpec struct {
	Query Query
	Cores []int
}

// RunOptions tunes an experiment run.
type RunOptions struct {
	// Duration is the simulated time budget in seconds (the paper runs
	// each workload for 90 wall-clock seconds; simulated runs use
	// shorter budgets at smaller data scales).
	Duration float64
	// WarmupFraction of the duration is excluded from measurement so
	// caches reach steady state. Default 0.25.
	WarmupFraction float64
	// Seed drives per-execution query parameters. Streams derive
	// distinct sub-seeds.
	Seed int64
	// Quantum caps the row budget per scheduling slice. Default 1024.
	Quantum int
	// TargetSliceTicks bounds the virtual time one scheduling slice
	// may advance a core. Keeping slices time-uniform across kernels
	// with very different per-row costs bounds the clock skew between
	// cores, which the shared DRAM queue is sensitive to. Default 1024
	// ticks (64 cycles).
	TargetSliceTicks int64
}

func (o *RunOptions) setDefaults() {
	if o.WarmupFraction <= 0 || o.WarmupFraction >= 1 {
		o.WarmupFraction = 0.25
	}
	if o.Quantum <= 0 {
		o.Quantum = 1024
	}
	if o.TargetSliceTicks <= 0 {
		o.TargetSliceTicks = 1024
	}
}

// StreamResult reports one stream's measured throughput and counters
// over the post-warmup window.
type StreamResult struct {
	Name          string
	Executions    int64
	Rows          int64
	WindowSeconds float64
	// Throughput is counted rows per simulated second.
	Throughput float64
	// Stats is the delta of the stream's cores over the window.
	Stats cachesim.CoreStats
	// ExecTicks holds the end-to-end duration of every execution
	// completed after warm-up, for response-time percentiles (the
	// paper measures end-to-end response times, Section III-D).
	ExecTicks []int64
	// Queries stamps every execution counted in ExecTicks with its
	// absolute start and completion tick on the run's virtual clock, in
	// completion order. Latency consumers (the serving tier's
	// percentile report) read these directly instead of keeping
	// parallel bookkeeping; Queries[i].Done-Queries[i].Start ==
	// ExecTicks[i] by construction, pinned by TestStreamQueryStamps.
	Queries []QueryStamp
	// Retries counts the stream's retried control-plane operations:
	// transient injected faults the engine cleared by retrying with
	// cycle-domain backoff.
	Retries int64
	// Degraded counts placements that fell back to the root group's
	// full mask after persistent or unretryable faults — isolation
	// lost, results preserved.
	Degraded int64
}

// QueryStamp is the virtual-time interval of one completed query
// execution: the tick the execution began (its cores' synchronised
// clock) and the tick its last phase barrier completed.
type QueryStamp struct {
	Start int64
	Done  int64
}

// Ticks returns the stamped execution's end-to-end duration.
func (q QueryStamp) Ticks() int64 { return q.Done - q.Start }

// Percentile returns the p-quantile (0..1) of the recorded execution
// durations in ticks, or 0 when none completed.
func (r StreamResult) Percentile(p float64) int64 {
	if len(r.ExecTicks) == 0 {
		return 0
	}
	sorted := make([]int64, len(r.ExecTicks))
	copy(sorted, r.ExecTicks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

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

// stream is the runtime state of one StreamSpec.
type stream struct {
	spec StreamSpec
	// idx is the stream's position in the run's spec list, the identity
	// an attached Controller tracks telemetry under.
	idx      int
	rng      *rand.Rand
	phases   []Phase
	phaseIdx int
	slots    []kernelSlot

	execs       int64
	rows        int64
	execsAtWarm int64
	rowsAtWarm  int64

	execStart   int64 // tick the in-flight execution began
	execTicks   []int64
	execDone    []int64 // completion tick of each recorded execution
	ticksAtWarm int     // executions recorded before warm-up
}

// binding ties one worker core to its stream and kernel slot.
type binding struct{ core, si, slot int }

// runState carries the prologue products of a run — streams, core
// bindings, warm-up bookkeeping — from prepareRun through the
// execution loop to results.
type runState struct {
	streams     []*stream
	bindings    []binding
	ctxs        []*exec.Ctx
	ces         *epochState // controller clock, nil without a controller
	durTicks    int64
	warmTicks   int64
	warmed      bool
	statsAtWarm []cachesim.CoreStats
}

// snapshotWarm records the warm-up boundary state.
func (rs *runState) snapshotWarm(e *Engine) {
	rs.warmed = true
	rs.statsAtWarm = e.m.CoreStatsSnapshot()
	for _, st := range rs.streams {
		st.rowsAtWarm = st.rows
		st.execsAtWarm = st.execs
		st.ticksAtWarm = len(st.execTicks)
	}
}

// Run executes the streams concurrently in virtual time until the
// simulated duration elapses, returning per-stream results. The
// machine is reset first so runs are independent and deterministic;
// the loop interleaves cores in min-clock order.
func (e *Engine) Run(specs []StreamSpec, opts RunOptions) ([]StreamResult, error) {
	opts.setDefaults()
	rs, err := e.prepareRun(specs, opts)
	if err != nil {
		return nil, err
	}
	if err := e.runSerial(rs, opts); err != nil {
		return nil, err
	}
	return e.results(rs), nil
}

// prepareRun validates the specs, resets the machine, plans the first
// execution of every stream and prewarms declared working sets.
func (e *Engine) prepareRun(specs []StreamSpec, opts RunOptions) (*runState, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("engine: no streams")
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("engine: duration %v must be positive", opts.Duration)
	}
	seen := make(map[int]bool)
	for _, s := range specs {
		if len(s.Cores) == 0 {
			return nil, fmt.Errorf("engine: stream %q has no cores", s.Query.Name())
		}
		for _, c := range s.Cores {
			if c < 0 || c >= e.m.Cores() {
				return nil, fmt.Errorf("engine: core %d out of range", c)
			}
			if seen[c] {
				return nil, fmt.Errorf("engine: core %d assigned twice", c)
			}
			seen[c] = true
		}
	}

	e.m.Reset()
	e.resetFaultState(len(specs))

	infos := make([]StreamInfo, len(specs))
	for i, s := range specs {
		infos[i] = StreamInfo{Name: s.Query.Name(), Cores: len(s.Cores)}
	}
	es, err := e.controllerBegin(infos)
	if err != nil {
		return nil, err
	}

	streams := make([]*stream, len(specs))
	// bindings lists (core, stream, slot) in ascending core order so
	// scheduling ties break deterministically.
	var bindings []binding
	for i, spec := range specs {
		st := &stream{
			spec: spec,
			idx:  i,
			rng:  rand.New(rand.NewSource(opts.Seed + int64(i)*7919)),
		}
		if err := e.planExecution(st); err != nil {
			return nil, err
		}
		streams[i] = st
		for slot, c := range spec.Cores {
			bindings = append(bindings, binding{core: c, si: i, slot: slot})
		}
	}
	sort.Slice(bindings, func(i, j int) bool { return bindings[i].core < bindings[j].core })

	ctxs := make([]*exec.Ctx, e.m.Cores())
	for c := range ctxs {
		ctxs[c] = e.Ctx(c)
	}

	// Prewarm declared working sets, then rewind the clocks so the
	// measured window starts in steady state.
	for _, st := range streams {
		pw, ok := st.spec.Query.(Prewarmer)
		if !ok {
			continue
		}
		for _, region := range pw.PrewarmRegions(len(st.spec.Cores)) {
			for i, off := 0, uint64(0); off < region.Size; i, off = i+1, off+memory.LineSize {
				c := st.spec.Cores[i%len(st.spec.Cores)]
				e.m.Access(c, region.Addr(off), false)
			}
		}
	}
	e.m.ZeroClocksAndStats()

	return &runState{
		streams:   streams,
		bindings:  bindings,
		ctxs:      ctxs,
		ces:       es,
		durTicks:  e.m.Ticks(opts.Duration),
		warmTicks: e.m.Ticks(opts.Duration * opts.WarmupFraction),
	}, nil
}

// runnable is one armed, unfinished kernel slot of a serial loop: the
// stream it belongs to, its slot there and the core it runs on.
type runnable struct {
	st   *stream
	slot int
	core int
}

// appendRunnable appends the stream's slot to run if a kernel is armed
// there and has not finished.
func appendRunnable(run []runnable, st *stream, slot, core int) []runnable {
	if slot < len(st.slots) && st.slots[slot].kernel != nil && !st.slots[slot].done {
		run = append(run, runnable{st: st, slot: slot, core: core})
	}
	return run
}

// leastAdvanced returns the runnable slot whose core clock is lowest,
// and that clock; ok is false when nothing can run. The first of equal
// clocks wins, so the order of run is the tie-break. The serial loops
// call it once per slice, which is why they keep run as a dense list —
// rebuilt only when a slot finishes or a phase arms — and do not walk
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

// runnableSlots lists the run's runnable slots in binding order, ascending
// by core.
func (rs *runState) runnableSlots(run []runnable) []runnable {
	for _, b := range rs.bindings {
		run = appendRunnable(run, rs.streams[b.si], b.slot, b.core)
	}
	return run
}

// runSerial is the reference execution loop: one slice at a time on
// the globally least-advanced core.
func (e *Engine) runSerial(rs *runState, opts RunOptions) error {
	run := rs.runnableSlots(nil)
	for {
		r, minNow, ok := leastAdvanced(e.m, run)
		if !ok {
			return fmt.Errorf("engine: deadlock — no runnable kernels")
		}
		if !rs.warmed && minNow >= rs.warmTicks {
			rs.snapshotWarm(e)
		}
		if minNow >= rs.durTicks {
			return nil
		}
		if err := e.controllerTick(rs.ces, minNow, r.core); err != nil {
			return err
		}

		done, err := e.stepSlice(r.st, r.slot, rs.ctxs[r.core], opts.TargetSliceTicks, opts.Quantum)
		if err != nil {
			return err
		}
		if done {
			if r.st.phaseDone() {
				if err := e.advancePhase(r.st); err != nil {
					return err
				}
			}
			run = rs.runnableSlots(run[:0])
		}
	}
}

// stepSlice runs one scheduling slice of the stream's slot on ctx's
// core — budget, Step, cost observation, row count — and reports
// whether the slice finished the slot's kernel; the caller then asks
// the stream whether that was the last one running in the phase. A
// kernel that neither progresses nor finishes is an error.
func (e *Engine) stepSlice(st *stream, slotIdx int, ctx *exec.Ctx, targetTicks int64, quantum int) (done bool, err error) {
	slot := &st.slots[slotIdx]
	budget := slot.budgetFor(targetTicks, quantum)
	before := e.m.Now(ctx.Core)
	rows, done := slot.kernel.Step(ctx, budget)
	slot.observe(rows, e.m.Now(ctx.Core)-before)
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

// results builds the per-stream report over the post-warm-up window.
func (e *Engine) results(rs *runState) []StreamResult {
	warmTicks := rs.warmTicks
	if !rs.warmed {
		rs.statsAtWarm = make([]cachesim.CoreStats, e.m.Cores())
		warmTicks = 0
	}
	results := make([]StreamResult, len(rs.streams))
	window := e.m.Seconds(rs.durTicks - warmTicks)
	for i, st := range rs.streams {
		var delta cachesim.CoreStats
		for _, c := range st.spec.Cores {
			delta.Add(e.m.Stats(c).Sub(rs.statsAtWarm[c]))
		}
		rows := st.rows - st.rowsAtWarm
		ticks := st.execTicks[st.ticksAtWarm:]
		stamps := make([]QueryStamp, len(ticks))
		for j, done := range st.execDone[st.ticksAtWarm:] {
			stamps[j] = QueryStamp{Start: done - ticks[j], Done: done}
		}
		results[i] = StreamResult{
			Name:          st.spec.Query.Name(),
			Executions:    st.execs - st.execsAtWarm,
			Rows:          rows,
			WindowSeconds: window,
			Throughput:    float64(rows) / window,
			Stats:         delta,
			ExecTicks:     ticks,
			Queries:       stamps,
			Retries:       e.streamFaults[i].retries,
			Degraded:      e.streamFaults[i].degraded,
		}
	}
	return results
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

// planExecution asks the query for a fresh execution's phases and arms
// phase 0.
func (e *Engine) planExecution(st *stream) error {
	// The new execution starts at the stream's synchronised clock.
	for _, c := range st.spec.Cores {
		if now := e.m.Now(c); now > st.execStart {
			st.execStart = now
		}
	}
	return e.planPhases(st)
}

// planPhases plans one execution's phases, validates them against the
// stream's core count and arms phase 0. Split from planExecution so
// the open-loop path (openloop.go) can stamp execution starts itself.
func (e *Engine) planPhases(st *stream) error {
	phases, err := st.spec.Query.Plan(len(st.spec.Cores), st.rng)
	if err != nil {
		return err
	}
	if len(phases) == 0 {
		return fmt.Errorf("engine: query %q planned no phases", st.spec.Query.Name())
	}
	for _, ph := range phases {
		if len(ph.Kernels) == 0 {
			return fmt.Errorf("engine: phase %q of %q has no kernels", ph.Name, st.spec.Query.Name())
		}
		if len(ph.Kernels) > len(st.spec.Cores) {
			return fmt.Errorf("engine: phase %q of %q has %d kernels for %d cores",
				ph.Name, st.spec.Query.Name(), len(ph.Kernels), len(st.spec.Cores))
		}
	}
	st.phases = phases
	st.phaseIdx = 0
	return e.armPhase(st)
}

// armPhase binds the current phase's kernels to the stream's cores and
// applies the phase's CUID to each participating worker.
func (e *Engine) armPhase(st *stream) error {
	ph := st.phases[st.phaseIdx]
	st.slots = make([]kernelSlot, len(st.spec.Cores))
	for i := range ph.Kernels {
		st.slots[i] = kernelSlot{kernel: ph.Kernels[i]}
		if err := e.applyJob(st.spec.Cores[i], st.idx, ph.CUID, ph.Footprint); err != nil {
			return err
		}
	}
	return nil
}

// advancePhase synchronises the stream's cores at the phase barrier
// and moves to the next phase, or plans the next execution when the
// last phase completed.
func (e *Engine) advancePhase(st *stream) error {
	var t int64
	for _, c := range st.spec.Cores {
		if now := e.m.Now(c); now > t {
			t = now
		}
	}
	for _, c := range st.spec.Cores {
		e.m.AdvanceTo(c, t)
	}
	st.phaseIdx++
	if st.phaseIdx < len(st.phases) {
		return e.armPhase(st)
	}
	st.execs++
	st.execTicks = append(st.execTicks, t-st.execStart)
	st.execDone = append(st.execDone, t)
	st.execStart = t
	return e.planExecution(st)
}
