package engine

import (
	"fmt"
	"math/rand"

	"cachepart/internal/core"
	"cachepart/internal/exec"
)

// Phase is one stage of a query execution: a set of kernels that run in
// parallel, one per worker core, separated from the next phase by a
// barrier (e.g. local aggregation before the merge). The whole phase
// runs under one cache usage identifier — a job represents at most one
// operator (Section V-C). CUID must be named: the zero value,
// core.Unset, fails the run when the phase starts.
type Phase struct {
	Name      string
	CUID      core.CUID
	Footprint core.Footprint
	// Kernels holds one kernel per worker slot; phases with fewer
	// kernels than the query has cores leave the remaining workers
	// idle (e.g. a single-threaded merge).
	Kernels []exec.Kernel
	// CountRows marks phases whose processed rows count toward the
	// query's throughput (payload phases, not auxiliary merges).
	CountRows bool
}

// unsetCUID is the error for a phase planned without a cache usage
// identifier.
func unsetCUID(q Query, ph Phase) error {
	return fmt.Errorf("engine: phase %q of query %q has no CUID; name Sensitive, Polluting or Depends", ph.Name, q.Name())
}

// Query plans executions of one statement. Implementations live in the
// workload package; the engine executes them repeatedly for the
// duration of an experiment, like the paper's 90-second runs.
type Query interface {
	Name() string
	// Plan instantiates the phases of one execution across the given
	// number of worker cores. rng drives per-execution parameters
	// (e.g. the scan predicate "?" chosen anew for every execution).
	Plan(cores int, rng *rand.Rand) ([]Phase, error)
}

// PartitionRows splits [0, rows) into n contiguous ranges for parallel
// kernels; the first rows%n ranges get one extra row.
func PartitionRows(rows, n int) [][2]int {
	if n <= 0 {
		n = 1
	}
	if n > rows && rows > 0 {
		n = rows
	}
	out := make([][2]int, 0, n)
	base := rows / n
	extra := rows % n
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}
