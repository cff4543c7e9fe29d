package engine

import "fmt"

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
	if len(queries) == 0 {
		return nil, fmt.Errorf("engine: no queries")
	}
	cores := e.m.Cores()
	// Streams time-share the whole pool; a stream's core share for
	// telemetry normalization is its fair fraction of it.
	share := cores / len(queries)
	if share < 1 {
		share = 1
	}
	// Every stream's core set is the whole pool; a worker's first
	// affinity is dealt round-robin.
	all, pool := make([]int, cores), make([]int, cores)
	for c := range all {
		all[c] = c
		pool[c] = c % len(queries)
	}
	specs := make([]StreamSpec, len(queries))
	infos := make([]StreamInfo, len(queries))
	for i, q := range queries {
		specs[i] = StreamSpec{Query: q, Cores: all}
		infos[i] = StreamInfo{Name: q.Name(), Cores: share}
	}
	return e.runClosed(specs, infos, opts, pool)
}

// poolSlice is a pool worker's turn: pick the next job for the core,
// re-associate the worker with the job's cache-usage class, run one
// slice of it and attribute the slice's counters to the job's stream.
// It returns the stream it ran.
func (e *Engine) poolSlice(rs *runState, core int) (st *stream, done bool, err error) {
	si, slot := pickSlot(rs.streams, rs.pool[core])
	if si < 0 {
		return nil, false, fmt.Errorf("engine: shared pool has no runnable jobs")
	}
	st = rs.streams[si]
	rs.pool[core] = si
	ph := st.phases[st.phaseIdx]
	if err := e.applyJob(core, si, ph.CUID, ph.Footprint); err != nil {
		return nil, false, err
	}
	before := e.m.Stats(core)
	done, err = e.stepSlice(rs, st, slot, core)
	st.poolStats.Add(e.m.Stats(core).Sub(before))
	return st, done, err
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
