package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cachepart/internal/cachesim"
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
	// seeded streams so replays are bit-identical. The engine reads it
	// only in the query's Plan at dispatch; it is valid until the
	// group's next Next, so a feed may reseed one per group.
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
	// Prewarm lists queries whose declared regions (Prewarmer) are
	// touched once before the clocks zero, so dictionaries and tables
	// start resident as they would be on a long-running server.
	Prewarm []Query
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

// RunOpenLoop executes submissions from the feed on disjoint core
// groups until every group retires. The machine is reset first; the
// attached controller (if any) sees one stream per group.
func (e *Engine) RunOpenLoop(groups [][]int, feed Feed, opts OpenLoopOptions) (*OpenLoopResult, error) {
	if feed == nil {
		return nil, fmt.Errorf("engine: nil feed")
	}
	specs := make([]StreamSpec, len(groups))
	infos := make([]StreamInfo, len(groups))
	var allCores []int
	for i, cores := range groups {
		specs[i] = StreamSpec{Cores: cores}
		infos[i] = StreamInfo{Name: fmt.Sprintf("serve-g%d", i), Cores: len(cores)}
		allCores = append(allCores, cores...)
	}
	if err := e.checkCores(specs); err != nil {
		return nil, err
	}

	// No horizon and no warm-up window: the run ends when the feed has
	// retired every group, and all of it is measured.
	rs := &runState{
		durTicks: math.MaxInt64,
		warmed:   true,
		feed:     feed,
	}
	rs.obs, _ = feed.(CompletionObserver)
	if err := e.begin(rs, specs, infos); err != nil {
		return nil, err
	}
	for _, st := range rs.streams {
		st.idle = true
	}
	// Prewarm declared working sets across all cores, so serving starts
	// from the steady state of a long-running server rather than a cold
	// cache.
	sort.Ints(allCores)
	for _, q := range opts.Prewarm {
		e.prewarm(q, allCores)
	}
	if err := e.loop(rs); err != nil {
		return nil, err
	}
	return e.openLoopResults(rs), nil
}

// dispatch asks the feed for the idle group's next submission at its
// wake tick and plans it. The group becomes busy, stays parked until a
// later tick, or retires.
func (e *Engine) dispatch(rs *runState, st *stream) error {
	now := st.wake
	sub, ok, wake := rs.feed.Next(st.idx, now)
	if !ok {
		if wake < 0 {
			st.retired = true
			return nil
		}
		if wake <= now {
			return fmt.Errorf("engine: feed parked group %d at %d without advancing past %d", st.idx, wake, now)
		}
		st.wake = wake
		return nil
	}
	if sub.Query == nil {
		return fmt.Errorf("engine: feed returned nil query for group %d", st.idx)
	}
	if sub.Release > now {
		return fmt.Errorf("engine: submission released at %d dispatched at %d", sub.Release, now)
	}
	st.spec.Query, st.rng, st.sub = sub.Query, sub.Rng, sub
	st.execStart = e.syncTo(st.spec.Cores, sub.Release)
	st.rows = 0
	if err := e.plan(st); err != nil {
		return err
	}
	st.idle = false
	st.statsAt = e.coreStats(st.spec.Cores)
	return nil
}

// complete records the completion of the group's submission at tick t
// and frees the group; the feed is asked for its next one at t.
func (e *Engine) complete(rs *runState, st *stream, t int64) {
	d := e.coreStats(st.spec.Cores).Sub(st.statsAt)
	c := Completion{
		Tag:      st.sub.Tag,
		Group:    st.idx,
		Release:  st.sub.Release,
		Start:    st.execStart,
		Done:     t,
		Rows:     st.rows,
		MemBytes: int64(d.DRAMBytes()),
	}
	rs.done = append(rs.done, c)
	if rs.obs != nil {
		rs.obs.Observe(c)
	}
	st.busyTicks += t - st.execStart
	st.idle, st.wake = true, t
}

// openLoopResults assembles the final report.
func (e *Engine) openLoopResults(rs *runState) *OpenLoopResult {
	sort.Slice(rs.done, func(i, j int) bool {
		a, b := rs.done[i], rs.done[j]
		if a.Done != b.Done {
			return a.Done < b.Done
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Tag < b.Tag
	})
	out := &OpenLoopResult{Completions: rs.done, Groups: make([]GroupResult, len(rs.streams))}
	for i, st := range rs.streams {
		out.Groups[i] = GroupResult{
			BusyTicks: st.busyTicks,
			EndTick:   e.clock(st.spec.Cores),
			Stats:     e.coreStats(st.spec.Cores),
			Retries:   e.streamFaults[i].retries,
			Degraded:  e.streamFaults[i].degraded,
		}
	}
	for _, c := range rs.done {
		out.Groups[c.Group].Completed++
	}
	return out
}
