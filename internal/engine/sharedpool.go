package engine

import (
	"fmt"
	"math/rand"

	"cachepart/internal/cachesim"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// RunSharedPool co-runs queries on one shared worker pool, the way the
// engine actually executes concurrent statements (Section V-C,
// Figure 8): every statement plans as many jobs as there are physical
// cores, all jobs queue on the same workers, and a worker picking up a
// job of a different cache-usage class has its thread re-associated
// with the matching resctrl group — the context-switch path where the
// redundant-write elision earns its keep. Jobs migrate between cores;
// the migration cost emerges naturally as private-cache misses.
//
// Workers prefer to continue jobs of the stream they last ran
// (affinity) and steal from other streams otherwise, so mask writes
// stay proportional to genuine class changes.
func (e *Engine) RunSharedPool(queries []Query, opts RunOptions) ([]StreamResult, error) {
	opts.setDefaults()
	if len(queries) == 0 {
		return nil, fmt.Errorf("engine: no queries")
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("engine: duration %v must be positive", opts.Duration)
	}
	e.m.Reset()
	e.resetFaultState(len(queries))

	// Streams time-share the whole pool; a stream's core share for
	// telemetry normalization is its fair fraction of it.
	share := e.m.Cores() / len(queries)
	if share < 1 {
		share = 1
	}
	infos := make([]StreamInfo, len(queries))
	for i, q := range queries {
		infos[i] = StreamInfo{Name: q.Name(), Cores: share}
	}
	es, err := e.controllerBegin(infos)
	if err != nil {
		return nil, err
	}

	cores := e.m.Cores()
	streams := make([]*stream, len(queries))
	for i, q := range queries {
		st := &stream{
			idx:  i,
			spec: StreamSpec{Query: q, Cores: poolCores(cores)},
			rng:  rand.New(rand.NewSource(opts.Seed + int64(i)*7919)),
		}
		// Plan without applying CUIDs to fixed cores: the pool applies
		// them per slice.
		phases, err := q.Plan(cores, st.rng)
		if err != nil {
			return nil, err
		}
		if err := validatePhases(q, phases, cores); err != nil {
			return nil, err
		}
		st.phases = phases
		st.armPoolPhase()
		streams[i] = st
	}

	ctxs := make([]*exec.Ctx, cores)
	for c := range ctxs {
		ctxs[c] = e.Ctx(c)
	}

	// Prewarm as in Run.
	for _, st := range streams {
		if pw, ok := st.spec.Query.(Prewarmer); ok {
			for _, region := range pw.PrewarmRegions(cores) {
				for i, off := 0, uint64(0); off < region.Size; i, off = i+1, off+memory.LineSize {
					e.m.Access(i%cores, region.Addr(off), false)
				}
			}
		}
	}
	e.m.ZeroClocksAndStats()

	durTicks := e.m.Ticks(opts.Duration)
	warmTicks := e.m.Ticks(opts.Duration * opts.WarmupFraction)
	warmed := false

	// lastStream[c] is the stream core c ran last, its affinity for
	// the next pick.
	lastStream := make([]int, cores)
	for c := range lastStream {
		lastStream[c] = c % len(streams)
	}
	// Per-core window accounting: each core's work is attributed to
	// the stream it runs, so per-stream stats sum slice deltas.
	streamStats := make([]cachesim.CoreStats, len(streams))
	warmStreamStats := make([]cachesim.CoreStats, len(streams))

	for {
		// Least-advanced core takes the next slice.
		minCore, minNow := -1, int64(0)
		for c := 0; c < cores; c++ {
			if now := e.m.Now(c); minCore < 0 || now < minNow {
				minCore, minNow = c, now
			}
		}
		if !warmed && minNow >= warmTicks {
			warmed = true
			copy(warmStreamStats, streamStats)
			for _, st := range streams {
				st.rowsAtWarm = st.rows
				st.execsAtWarm = st.execs
				st.ticksAtWarm = len(st.execTicks)
			}
		}
		if minNow >= durTicks {
			break
		}
		if err := e.controllerTick(es, minNow, minCore); err != nil {
			return nil, err
		}

		si, slotIdx := pickSlot(streams, lastStream[minCore])
		if si < 0 {
			return nil, fmt.Errorf("engine: shared pool has no runnable jobs")
		}
		st := streams[si]
		lastStream[minCore] = si
		ph := st.phases[st.phaseIdx]
		if err := e.applyJob(minCore, si, ph.CUID, ph.Footprint); err != nil {
			return nil, err
		}
		slot := &st.slots[slotIdx]
		budget := slot.budgetFor(opts.TargetSliceTicks, opts.Quantum)
		before := e.m.Stats(minCore)
		rows, done := slot.kernel.Step(ctxs[minCore], budget)
		streamStats[si].Add(e.m.Stats(minCore).Sub(before))
		slot.observe(rows, e.m.Stats(minCore).ComputeTicks+e.m.Stats(minCore).StallTicks-
			(before.ComputeTicks+before.StallTicks))
		if ph.CountRows {
			st.rows += int64(rows)
		}
		if done {
			slot.done = true
			if st.phaseDone() {
				// Barrier: in the shared pool no cores idle — other
				// jobs fill the time — so only the stream advances.
				st.phaseIdx++
				if st.phaseIdx >= len(st.phases) {
					st.execs++
					now := e.m.Now(minCore)
					st.execTicks = append(st.execTicks, now-st.execStart)
					st.execStart = now
					phases, err := st.spec.Query.Plan(cores, st.rng)
					if err != nil {
						return nil, err
					}
					if err := validatePhases(st.spec.Query, phases, cores); err != nil {
						return nil, err
					}
					st.phases = phases
					st.phaseIdx = 0
				}
				st.armPoolPhase()
			}
		} else if rows == 0 {
			return nil, fmt.Errorf("engine: kernel %q/%s made no progress",
				st.spec.Query.Name(), ph.Name)
		}
	}

	if !warmed {
		warmTicks = 0
	}

	results := make([]StreamResult, len(streams))
	window := e.m.Seconds(durTicks - warmTicks)
	for i, st := range streams {
		rows := st.rows - st.rowsAtWarm
		results[i] = StreamResult{
			Name:          st.spec.Query.Name(),
			Executions:    st.execs - st.execsAtWarm,
			Rows:          rows,
			WindowSeconds: window,
			Throughput:    float64(rows) / window,
			Stats:         streamStats[i].Sub(warmStreamStats[i]),
			ExecTicks:     st.execTicks[st.ticksAtWarm:],
			Retries:       e.streamFaults[i].retries,
			Degraded:      e.streamFaults[i].degraded,
		}
	}
	return results, nil
}

// armPoolPhase resets the slot list for the stream's current phase
// without per-core CUID application (done per slice).
func (st *stream) armPoolPhase() {
	ph := st.phases[st.phaseIdx]
	st.slots = make([]kernelSlot, len(ph.Kernels))
	for i := range ph.Kernels {
		st.slots[i] = kernelSlot{kernel: ph.Kernels[i]}
	}
}

// pickSlot chooses the next runnable slot, preferring the given stream
// (worker affinity) and otherwise stealing from the lowest-indexed
// stream with runnable work. Within a stream it picks the
// lowest-indexed runnable slot.
func pickSlot(streams []*stream, prefer int) (si, slot int) {
	if s := streams[prefer].firstRunnable(); s >= 0 {
		return prefer, s
	}
	for i, st := range streams {
		if s := st.firstRunnable(); s >= 0 {
			return i, s
		}
	}
	return -1, -1
}

// firstRunnable returns the lowest-indexed slot of the stream's
// current phase that still has work, or -1.
func (st *stream) firstRunnable() int {
	for s := range st.slots {
		if st.slots[s].kernel != nil && !st.slots[s].done {
			return s
		}
	}
	return -1
}

// validatePhases mirrors planExecution's checks.
func validatePhases(q Query, phases []Phase, cores int) error {
	if len(phases) == 0 {
		return fmt.Errorf("engine: query %q planned no phases", q.Name())
	}
	for _, ph := range phases {
		if len(ph.Kernels) == 0 {
			return fmt.Errorf("engine: phase %q of %q has no kernels", ph.Name, q.Name())
		}
		if len(ph.Kernels) > cores {
			return fmt.Errorf("engine: phase %q of %q has %d kernels for %d cores",
				ph.Name, q.Name(), len(ph.Kernels), cores)
		}
	}
	return nil
}

// poolCores lists all cores, the nominal core set of a pool stream.
func poolCores(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
