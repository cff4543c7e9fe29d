package engine

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// countKernel is a trivial kernel: it burns a small compute cost per
// row and counts down.
type countKernel struct {
	remaining int
	onRow     func()
}

func (k *countKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	n := budget
	if n > k.remaining {
		n = k.remaining
	}
	for i := 0; i < n; i++ {
		ctx.Compute(10, 4)
		if k.onRow != nil {
			k.onRow()
		}
	}
	k.remaining -= n
	return n, k.remaining == 0
}

// countQuery plans a single-phase execution of rowsPerExec rows split
// across the cores, plus a draw in [0, jitter) from the stream rng when
// jitter is set — the way OLTP lookups and serve dispatch make a run's
// timing follow its seed.
type countQuery struct {
	name        string
	rowsPerExec int
	jitter      int
	cuid        core.CUID
}

func (q *countQuery) Name() string { return q.name }

func (q *countQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	rows := q.rowsPerExec
	if q.jitter > 0 {
		rows += rng.Intn(q.jitter)
	}
	parts := PartitionRows(rows, cores)
	ks := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		ks = append(ks, &countKernel{remaining: p[1] - p[0]})
	}
	return []Phase{{
		Name:      "count",
		CUID:      q.cuid,
		Kernels:   ks,
		CountRows: true,
	}}, nil
}

// scanQuery plans one exec.ColumnScan per core over a shared column
// with a bound drawn from the stream's RNG: the kernel whose count runs
// on a host goroutine of its own, which the bit-identity tests must
// see to say anything about host parallelism.
type scanQuery struct {
	col *column.Column
}

func newScanQuery(t *testing.T, rows int) *scanQuery {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows)))
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = 1 + rng.Int63n(1<<14)
	}
	col, err := column.EncodeDense(memory.NewSpace(), "scan.x", vals, 1, 1<<14, column.DefaultEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	return &scanQuery{col: col}
}

func (q *scanQuery) Name() string { return "scan" }

func (q *scanQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	bound := 1 + rng.Int63n(1<<14)
	parts := PartitionRows(q.col.Rows(), cores)
	ks := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		k, err := exec.NewColumnScan(q.col, p[0], p[1], bound)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return []Phase{{Name: "scan", CUID: core.Polluting, Kernels: ks, CountRows: true}}, nil
}

// onOneP runs f with the Go scheduler held to a single P, where helper
// goroutines interleave with the simulation instead of running beside
// it, and restores the setting.
func onOneP(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// twoPhaseQuery checks barrier semantics: phase B must never start
// while phase A rows remain.
type twoPhaseQuery struct {
	rowsA, rowsB int

	pendingA   atomic.Int64
	outOfOrder bool
}

func (q *twoPhaseQuery) Name() string { return "two-phase" }

func (q *twoPhaseQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	q.pendingA.Store(int64(q.rowsA))
	partsA := PartitionRows(q.rowsA, cores)
	ksA := make([]exec.Kernel, 0, len(partsA))
	for _, p := range partsA {
		ksA = append(ksA, &countKernel{
			remaining: p[1] - p[0],
			onRow:     func() { q.pendingA.Add(-1) },
		})
	}
	ksB := []exec.Kernel{&countKernel{
		remaining: q.rowsB,
		onRow: func() {
			if q.pendingA.Load() != 0 {
				q.outOfOrder = true
			}
		},
	}}
	return []Phase{
		{Name: "A", CUID: core.Sensitive, Kernels: ksA, CountRows: true},
		{Name: "B", CUID: core.Sensitive, Kernels: ksB},
	}, nil
}
