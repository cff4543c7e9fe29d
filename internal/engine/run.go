package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"cachepart/internal/cachesim"
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
	// Seed drives per-execution query parameters. Streams derive
	// distinct sub-seeds.
	Seed int64
}

// warmupFraction of a closed run's duration is excluded from
// measurement so caches reach steady state.
const warmupFraction = 0.25

// quantumRows caps the row budget of one scheduling slice.
const quantumRows = 1024

// sliceTicks bounds the virtual time one scheduling slice may advance
// a core (64 cycles). Keeping slices time-uniform across kernels with
// very different per-row costs bounds the clock skew between cores,
// which the shared DRAM queue is sensitive to.
const sliceTicks = 1024

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
	// Queries stamps every execution completed after warm-up with its
	// absolute start and completion tick on the run's virtual clock, in
	// completion order. Their durations give the response-time
	// percentiles (the paper measures end-to-end response times,
	// Section III-D).
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
	if len(r.Queries) == 0 {
		return 0
	}
	sorted := make([]int64, len(r.Queries))
	for i, q := range r.Queries {
		sorted[i] = q.Ticks()
	}
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

// Run executes the streams concurrently in virtual time until the
// simulated duration elapses, returning per-stream results. The
// machine is reset first so runs are independent and deterministic;
// the loop interleaves cores in min-clock order. Each stream re-plans
// its own query back to back: it plans its first execution from an rng
// of its own sub-seed, then the declared working sets are prewarmed
// with the phase-0 masks already applied.
func (e *Engine) Run(specs []StreamSpec, opts RunOptions) ([]StreamResult, error) {
	if err := e.checkCores(specs); err != nil {
		return nil, err
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("engine: duration %v must be positive", opts.Duration)
	}
	infos := make([]StreamInfo, len(specs))
	for i, s := range specs {
		infos[i] = StreamInfo{Name: s.Query.Name(), Cores: len(s.Cores)}
	}
	rs := &runState{
		durTicks:  e.m.Ticks(opts.Duration),
		warmTicks: e.m.Ticks(opts.Duration * warmupFraction),
	}
	if err := e.begin(rs, specs, infos); err != nil {
		return nil, err
	}
	// Equal clocks are served in ascending core order.
	sort.Slice(rs.bindings, func(i, j int) bool { return rs.bindings[i].core < rs.bindings[j].core })
	for i, st := range rs.streams {
		st.rng = rand.New(rand.NewSource(opts.Seed + int64(i)*7919))
		if err := e.plan(st); err != nil {
			return nil, err
		}
	}
	for _, st := range rs.streams {
		e.prewarm(st.spec.Query, st.spec.Cores)
	}
	if err := e.loop(rs); err != nil {
		return nil, err
	}
	return e.results(rs), nil
}

// results builds the per-stream report over the post-warm-up window,
// or over the whole run when it ended before the boundary.
func (e *Engine) results(rs *runState) []StreamResult {
	warmTicks := rs.warmTicks
	if !rs.warmed {
		warmTicks = 0
	}
	results := make([]StreamResult, len(rs.streams))
	window := e.m.Seconds(rs.durTicks - warmTicks)
	for i, st := range rs.streams {
		rows := st.rows - st.rowsAtWarm
		queries := st.queries[st.queriesAtWarm:]
		results[i] = StreamResult{
			Name:          st.spec.Query.Name(),
			Executions:    int64(len(queries)),
			Rows:          rows,
			WindowSeconds: window,
			Throughput:    float64(rows) / window,
			Stats:         e.coreStats(st.spec.Cores).Sub(st.statsAt),
			Queries:       queries,
			Retries:       e.streamFaults[i].retries,
			Degraded:      e.streamFaults[i].degraded,
		}
	}
	return results
}
