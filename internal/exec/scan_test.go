package exec

import (
	"runtime"
	"testing"
	"time"

	"cachepart/internal/column"
)

// These tests pin the split of ColumnScan into the timing half (Step)
// and the functional half (the count, on a goroutine of its own). The
// access sequence is TestColumnScanAccessSequence's; what is checked
// here is when Count becomes valid and that a helper nobody waits for
// goes away. CI runs them under -race and -cpu 1,2, so the helper is
// seen both interleaved on one P and beside the test on a second.

// countByGet is the reference: one Get per row.
func countByGet(codes *column.PackedVector, from, to int, lo, hi uint32) int64 {
	var n int64
	for i := from; i < to; i++ {
		if c := codes.Get(i); c >= lo && c < hi {
			n++
		}
	}
	return n
}

func TestColumnScanCountArrivesWithDone(t *testing.T) {
	for _, bits := range []uint{15, 20, 27, 32} {
		ctx, space := testCtx(t)
		const n = 5000
		col := uniformCol(t, space, "x", n, 1, int64(1)<<bits-1, int64(bits))
		codes := col.Codes
		from, to := 37, n-11
		if codes.LineOfRow(from) != codes.LineOfRow(from-1) || codes.LineOfRow(to) != codes.LineOfRow(to-1) {
			t.Fatalf("bits=%d: rows %d and %d were meant to be mid-line", bits, from, to)
		}
		for _, budget := range []int{1, 7, 33, 101, 4096} {
			scan, err := NewColumnScan(col, from, to, int64(1)<<(bits-1))
			if err != nil {
				t.Fatal(err)
			}
			want := countByGet(codes, from, to, scan.LoCode, scan.HiCode)
			if want == 0 || want == int64(to-from) {
				t.Fatalf("bits=%d: the predicate selects %d of %d rows", bits, want, to-from)
			}
			rows := 0
			for done := false; !done; {
				if scan.Count != 0 {
					t.Fatalf("bits=%d budget=%d: Count = %d after %d rows, want 0 until done", bits, budget, scan.Count, rows)
				}
				var r int
				r, done = scan.Step(ctx, budget)
				rows += r
			}
			if rows != to-from || scan.Count != want {
				t.Errorf("bits=%d budget=%d: %d rows, Count = %d on the Step that returned done; want %d rows, %d", bits, budget, rows, scan.Count, to-from, want)
			}
			// A Step past the end neither starts a helper nor moves Count.
			if r, done := scan.Step(ctx, budget); r != 0 || !done || scan.Count != want || scan.pending != nil {
				t.Errorf("bits=%d budget=%d: Step after done = (%d, %v), Count %d, pending %v", bits, budget, r, done, scan.Count, scan.pending)
			}
		}
	}
}

func TestColumnScanEmptyRangeStartsNothing(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 100, 1, 5, 1)
	scan, err := NewColumnScan(col, 40, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows, done := scan.Step(ctx, 64); rows != 0 || !done || scan.Count != 0 || scan.pending != nil {
		t.Errorf("empty scan: Step = (%d, %v), Count %d, pending %v", rows, done, scan.Count, scan.pending)
	}
}

// TestColumnScanAbandonedHelperExits: a kernel the run drops at its
// horizon is never stepped to done, so nobody receives its count. The
// helper must still finish (its send lands in the channel's buffer)
// rather than wait for a reader that will not come.
func TestColumnScanAbandonedHelperExits(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 200_000, 1, 1_000_000, 4)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		scan, err := NewColumnScan(col, i*1000, col.Rows(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			if _, done := scan.Step(ctx, 64); done {
				t.Fatal("the scan finished; it was meant to be abandoned")
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the abandoned scans", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
