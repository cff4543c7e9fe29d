package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"cachepart/internal/cachesim"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// openloop: query-granular execution for open-loop serving workloads.
//
// The closed-loop Run executes a fixed set of streams back-to-back for
// a simulated duration — the paper's co-run setup. A serving tier
// instead sees individual queries arrive over virtual time, each of
// which must be dispatched to a core group, executed once, and stamped
// with its completion tick. RunOpenLoop provides that mode: the caller
// supplies disjoint core groups and a Feed; whenever a group is idle
// the engine asks the feed for the next Submission, executes exactly
// one planned execution of its query on the group's cores, and records
// a Completion. All scheduling happens on the virtual clock in
// min-clock order, so co-running groups contend for the shared LLC and
// DRAM queue exactly as the closed-loop streams do, and results are a
// pure function of the submissions — bit-identical per seed.

// Submission is one unit of open-loop work: a single execution of a
// query, releasable no earlier than its admission tick.
type Submission struct {
	Query Query
	// Rng drives the execution's per-query parameters (the "?" of the
	// scan predicate, the OLTP document id). The feed derives it from
	// seeded streams so replays are bit-identical.
	Rng *rand.Rand
	// Release is the earliest virtual tick the query may start — its
	// arrival (or admission) time. The execution starts at
	// max(Release, group clock).
	Release int64
	// Tag is an opaque caller identifier echoed on the Completion.
	Tag int64
}

// Completion reports one finished submission.
type Completion struct {
	Tag     int64
	Group   int
	Release int64
	// Start is the tick the execution began: max(Release, the group's
	// synchronised clock at dispatch). Start-Release is queue delay
	// spent waiting for a free group after admission.
	Start int64
	// Done is the tick the execution's last phase barrier completed.
	Done int64
	Rows int64
	// MemBytes is the DRAM traffic the execution's cores generated while
	// it ran — demand fills, prefetch fills and dirty writebacks, in
	// bytes. It is the per-completion telemetry the serving tier's
	// overload control classifies LLC polluters from (the completion-
	// granular analogue of the MBM counters internal/adapt reads).
	MemBytes int64
}

// Wait returns the completion's post-admission queueing delay.
func (c Completion) Wait() int64 { return c.Start - c.Release }

// Service returns the completion's execution time on its group.
func (c Completion) Service() int64 { return c.Done - c.Start }

// Latency returns the completion's end-to-end response time from
// admission to completion.
func (c Completion) Latency() int64 { return c.Done - c.Release }

// Feed supplies an open-loop run with work. The engine calls Next with
// a monotone non-decreasing now per group; implementations must be
// deterministic functions of their configuration (seeded streams, never
// the wall clock).
type Feed interface {
	// Next is called whenever a group is idle at virtual tick now.
	// Returning ok dispatches the submission (whose Release must not
	// exceed now). Returning !ok with wake > now parks the group until
	// wake; !ok with wake < 0 retires the group — it is never asked
	// again and the run ends once every group has retired.
	Next(group int, now int64) (sub Submission, ok bool, wake int64)
}

// CompletionObserver is an optional Feed extension: a feed that also
// implements it sees every Completion the moment it is recorded, in
// completion order. The serving tier's overload control uses the
// callback to drive circuit breakers and polluter classification from
// live completion telemetry. Observe must be deterministic — it runs
// inside the virtual-time loop.
type CompletionObserver interface {
	Observe(c Completion)
}

// OpenLoopOptions tunes an open-loop run. The zero value is usable.
type OpenLoopOptions struct {
	// Quantum and TargetSliceTicks bound a scheduling slice exactly as
	// in RunOptions. Defaults 1024 rows / 1024 ticks.
	Quantum          int
	TargetSliceTicks int64

	// Prewarm lists queries whose declared regions (Prewarmer) are
	// touched once before the clocks zero, so dictionaries and tables
	// start resident as they would be on a long-running server.
	Prewarm []Query
}

func (o *OpenLoopOptions) setDefaults() {
	if o.Quantum <= 0 {
		o.Quantum = 1024
	}
	if o.TargetSliceTicks <= 0 {
		o.TargetSliceTicks = 1024
	}
}

// GroupResult summarises one core group over an open-loop run.
type GroupResult struct {
	Completed int64
	// BusyTicks sums the group's execution intervals; EndTick is the
	// group's final synchronised clock. BusyTicks/EndTick is the
	// group's utilisation.
	BusyTicks int64
	EndTick   int64
	Stats     cachesim.CoreStats
	Retries   int64
	Degraded  int64
}

// OpenLoopResult is the full report of one open-loop run.
type OpenLoopResult struct {
	// Completions holds every finished submission sorted by (Done,
	// Group, Tag).
	Completions []Completion
	Groups      []GroupResult
}

// olGroup is the runtime state of one core group.
type olGroup struct {
	id    int
	cores []int
	// st is the in-flight submission's stream state, nil while idle.
	st      *stream
	sub     Submission
	start   int64
	rowsAt  int64
	busy    bool
	retired bool
	// statsAt snapshots the group cores' counters at dispatch, so the
	// completion can report the execution's DRAM traffic delta.
	statsAt cachesim.CoreStats
	// wake is the next tick the feed should be asked for this group.
	wake int64
}

// clock returns the group's synchronised clock: the max of its cores.
func (g *olGroup) clock(m *cachesim.Machine) int64 {
	var t int64
	for _, c := range g.cores {
		if now := m.Now(c); now > t {
			t = now
		}
	}
	return t
}

// stats sums the group cores' counters at the current instant.
func (g *olGroup) stats(m *cachesim.Machine) cachesim.CoreStats {
	var s cachesim.CoreStats
	for _, c := range g.cores {
		s.Add(m.Stats(c))
	}
	return s
}

// olState carries an open-loop run's shared state.
type olState struct {
	groups []*olGroup
	ctxs   []*exec.Ctx
	ces    *epochState
	done   []Completion
	// obs is the feed's optional completion callback (nil when the feed
	// does not implement CompletionObserver).
	obs CompletionObserver
	// results accumulates per-group counters during the run; the final
	// stats and fault tallies are folded in by openLoopResults.
	results []GroupResult
}

// RunOpenLoop executes submissions from the feed on disjoint core
// groups until every group retires. The machine is reset first; the
// attached controller (if any) sees one stream per group.
func (e *Engine) RunOpenLoop(groups [][]int, feed Feed, opts OpenLoopOptions) (*OpenLoopResult, error) {
	opts.setDefaults()
	st, err := e.prepareOpenLoop(groups, opts)
	if err != nil {
		return nil, err
	}
	if feed == nil {
		return nil, fmt.Errorf("engine: nil feed")
	}
	if obs, ok := feed.(CompletionObserver); ok {
		st.obs = obs
	}
	if err := e.openLoopSerial(st, feed, opts); err != nil {
		return nil, err
	}
	return e.openLoopResults(st), nil
}

// prepareOpenLoop validates the groups, resets the machine, prewarms
// declared working sets and begins the controller's run.
func (e *Engine) prepareOpenLoop(groups [][]int, opts OpenLoopOptions) (*olState, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("engine: no core groups")
	}
	seen := make(map[int]bool)
	for gi, cores := range groups {
		if len(cores) == 0 {
			return nil, fmt.Errorf("engine: group %d has no cores", gi)
		}
		for _, c := range cores {
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
	e.resetFaultState(len(groups))

	infos := make([]StreamInfo, len(groups))
	for i, cores := range groups {
		infos[i] = StreamInfo{Name: fmt.Sprintf("serve-g%d", i), Cores: len(cores)}
	}
	ces, err := e.controllerBegin(infos)
	if err != nil {
		return nil, err
	}

	// Prewarm declared working sets across all cores, then rewind the
	// clocks so serving starts from the steady state of a long-running
	// server rather than a cold cache.
	allCores := make([]int, 0, len(seen))
	for _, cores := range groups {
		allCores = append(allCores, cores...)
	}
	sort.Ints(allCores)
	for _, q := range opts.Prewarm {
		pw, ok := q.(Prewarmer)
		if !ok {
			continue
		}
		for _, region := range pw.PrewarmRegions(len(allCores)) {
			for i, off := 0, uint64(0); off < region.Size; i, off = i+1, off+memory.LineSize {
				e.m.Access(allCores[i%len(allCores)], region.Addr(off), false)
			}
		}
	}
	e.m.ZeroClocksAndStats()

	ctxs := make([]*exec.Ctx, e.m.Cores())
	for c := range ctxs {
		ctxs[c] = e.Ctx(c)
	}
	gs := make([]*olGroup, len(groups))
	for i, cores := range groups {
		gs[i] = &olGroup{id: i, cores: cores}
	}
	return &olState{groups: gs, ctxs: ctxs, ces: ces, results: make([]GroupResult, len(groups))}, nil
}

// dispatch asks the feed for the group's next submission at tick now
// and arms it. The group transitions to busy, parked, or retired.
func (e *Engine) dispatch(ol *olState, g *olGroup, feed Feed, now int64) error {
	sub, ok, wake := feed.Next(g.id, now)
	if !ok {
		if wake < 0 {
			g.retired = true
			return nil
		}
		if wake <= now {
			return fmt.Errorf("engine: feed parked group %d at %d without advancing past %d", g.id, wake, now)
		}
		g.wake = wake
		return nil
	}
	if sub.Query == nil {
		return fmt.Errorf("engine: feed returned nil query for group %d", g.id)
	}
	if sub.Release > now {
		return fmt.Errorf("engine: submission released at %d dispatched at %d", sub.Release, now)
	}
	start := sub.Release
	if c := g.clock(e.m); c > start {
		start = c
	}
	for _, c := range g.cores {
		e.m.AdvanceTo(c, start)
	}
	st := &stream{
		spec: StreamSpec{Query: sub.Query, Cores: g.cores},
		idx:  g.id,
		rng:  sub.Rng,
	}
	if err := e.planPhases(st); err != nil {
		return err
	}
	g.st, g.sub, g.start, g.busy = st, sub, start, true
	g.rowsAt = 0
	g.statsAt = g.stats(e.m)
	return nil
}

// completeOrAdvance synchronises the group's cores at the phase
// barrier, then either arms the next phase or records the completion
// and frees the group.
func (e *Engine) completeOrAdvance(ol *olState, g *olGroup) error {
	st := g.st
	t := g.clock(e.m)
	for _, c := range g.cores {
		e.m.AdvanceTo(c, t)
	}
	st.phaseIdx++
	if st.phaseIdx < len(st.phases) {
		return e.armPhase(st)
	}
	d := g.stats(e.m).Sub(g.statsAt)
	c := Completion{
		Tag:      g.sub.Tag,
		Group:    g.id,
		Release:  g.sub.Release,
		Start:    g.start,
		Done:     t,
		Rows:     st.rows,
		MemBytes: int64(d.LLCMisses+d.PrefetchIssued+d.Writebacks) * memory.LineSize,
	}
	ol.done = append(ol.done, c)
	if ol.obs != nil {
		ol.obs.Observe(c)
	}
	ol.results[g.id].BusyTicks += t - g.start
	ol.results[g.id].Completed++
	g.st, g.busy = nil, false
	g.wake = t
	return nil
}

// openLoopSerial is the reference loop: interleave the busy groups'
// cores in min-clock order (as runSerial does for streams), waking
// idle groups whenever their wake tick is the earliest event.
func (e *Engine) openLoopSerial(ol *olState, feed Feed, opts OpenLoopOptions) error {
	var run []runnable // of the busy groups; rebuilt when one changes
	for {
		// Earliest idle wake (ties: lowest group id wins via scan order).
		var wakeG *olGroup
		for _, g := range ol.groups {
			if g.busy || g.retired {
				continue
			}
			if wakeG == nil || g.wake < wakeG.wake {
				wakeG = g
			}
		}
		// Least-advanced runnable core among busy groups.
		r, minNow, ok := leastAdvanced(e.m, run)
		if wakeG == nil && !ok {
			return nil // every group retired and drained
		}
		if wakeG != nil && (!ok || wakeG.wake <= minNow) {
			if err := e.dispatch(ol, wakeG, feed, wakeG.wake); err != nil {
				return err
			}
			run = ol.runnableSlots(run[:0])
			continue
		}
		if err := e.controllerTick(ol.ces, minNow, r.core); err != nil {
			return err
		}
		done, err := e.stepSlice(r.st, r.slot, ol.ctxs[r.core], opts.TargetSliceTicks, opts.Quantum)
		if err != nil {
			return err
		}
		if done {
			if r.st.phaseDone() {
				// The stream of a group's submission carries the group's id.
				if err := e.completeOrAdvance(ol, ol.groups[r.st.idx]); err != nil {
					return err
				}
			}
			run = ol.runnableSlots(run[:0])
		}
	}
}

// runnableSlots lists the busy groups' runnable slots, group by group and
// slot by slot, the order in which equal clocks are served.
func (ol *olState) runnableSlots(run []runnable) []runnable {
	for _, g := range ol.groups {
		if !g.busy {
			continue
		}
		for i := range g.st.slots {
			run = appendRunnable(run, g.st, i, g.cores[i])
		}
	}
	return run
}

// openLoopResults assembles the final report.
func (e *Engine) openLoopResults(ol *olState) *OpenLoopResult {
	sort.Slice(ol.done, func(i, j int) bool {
		a, b := ol.done[i], ol.done[j]
		if a.Done != b.Done {
			return a.Done < b.Done
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Tag < b.Tag
	})
	out := &OpenLoopResult{Completions: ol.done, Groups: ol.results}
	for i, g := range ol.groups {
		gr := &out.Groups[i]
		gr.EndTick = g.clock(e.m)
		for _, c := range g.cores {
			gr.Stats.Add(e.m.Stats(c))
		}
		gr.Retries = e.streamFaults[i].retries
		gr.Degraded = e.streamFaults[i].degraded
	}
	return out
}
