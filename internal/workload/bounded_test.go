package workload

import (
	"math"
	"math/rand"
	"testing"
)

// boundedNs are the bounds the prepared draw is pinned at: the
// power-of-two path (1, 2, 1024), the data sets' own bounds (21845
// documents, 31250 and 312500 distinct values), and the extremes. At
// 3·2^61 a quarter of raw draws exceed Int63n's bound, so the
// rejection loop runs.
var boundedNs = []int64{1, 2, 3, 1024, 21845, 31250, 312500, 1<<31 - 1, 1<<62 + 3, 3 << 61}

func TestBoundedMatchesInt63n(t *testing.T) {
	for _, n := range boundedNs {
		want, got := rand.New(rand.NewSource(n)), NewRand(n)
		d := newBounded(n)
		for i := 0; i < 100_000; i++ {
			if w, g := want.Int63n(n), d.draw(got.src); w != g {
				t.Fatalf("n=%d draw %d: prepared draw %d, Int63n %d", n, i, g, w)
			}
		}
		// Both consumed the same raw draws.
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("n=%d: the sources diverged after 10^5 draws", n)
		}
	}
}

// TestBoundedModEdges checks the reciprocal remainder against % at the
// values where an inexact reciprocal would first go wrong: around
// multiples of n and at the top of the 63-bit range.
func TestBoundedModEdges(t *testing.T) {
	for _, n := range append(boundedNs, 7, 1<<63-1, 1<<63-25) {
		d := newBounded(n)
		u := uint64(n)
		vs := []uint64{0, 1, math.MaxInt64, math.MaxInt64 - 1, uint64(d.max), uint64(d.max) + 1}
		for _, k := range []uint64{1, 2, 3, math.MaxInt64 / u, math.MaxInt64/u - 1} {
			vs = append(vs, k*u-1, k*u, k*u+1)
		}
		for _, v := range vs {
			if v > math.MaxInt64 {
				continue
			}
			if got, want := d.mod(v), int64(v%u); got != want {
				t.Errorf("n=%d: mod(%d) = %d, want %d", n, v, got, want)
			}
		}
	}
}
