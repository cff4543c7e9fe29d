package workload

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"cachepart/internal/column"
	"cachepart/internal/memory"
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

// TestBoundedSkip checks that skip(k) leaves the source where k draws
// leave it, from several offsets into the buffer, for k around one
// refill's 1024 outputs and across several: at 2^20, a bound that
// never rejects, at 31250, and at 3·2^61, where a quarter of raw draws
// are rejected.
func TestBoundedSkip(t *testing.T) {
	for _, n := range []int64{1 << 20, 31250, 3 << 61} {
		d := newBounded(n)
		for _, before := range []int{0, 1, 600} {
			for _, k := range []int{0, 1, 1023, 1024, 1025, 5000, 3*block + 17} {
				skipped, drawn := NewRand(7), NewRand(7)
				for range before {
					skipped.Int63()
					drawn.Int63()
				}
				d.skip(skipped.src, k)
				for range k {
					d.draw(drawn.src)
				}
				if *skipped.src != *drawn.src {
					t.Errorf("n=%d, %d draws in: skip(%d) left the source at %d, %d draws at %d", n, before, k, skipped.src.pos, k, drawn.src.pos)
				}
			}
		}
	}
}

// TestEncodeHalvesMatchesSerial checks the split encoder against the
// serial loop it replaces: the same codes in every row and the same
// source state after, at lengths around the first split (mid is 0
// below 512 rows, then 256) and past a few refills, at widths whose
// runs straddle words (19 bits) or fill them unevenly (7 bits).
func TestEncodeHalvesMatchesSerial(t *testing.T) {
	for _, distinct := range []int64{312500, 100} {
		d, width := newBounded(distinct), uint(bits.Len64(uint64(distinct-1)))
		for _, n := range []int{255, 256, 511, 512, 513, 1<<16 + 7} {
			split, serial := NewRand(3), NewRand(3)
			got, _ := column.NewPackedVector(memory.NewSpace(), "got", n, width)
			want, _ := column.NewPackedVector(memory.NewSpace(), "want", n, width)
			d.encodeHalves(split.src, got, n/2&^255)
			var run [256]uint32
			for from := 0; from < n; from += len(run) {
				r := run[:min(len(run), n-from)]
				d.fill(serial.src, r)
				want.PackRun(from, r)
			}
			for i := range n {
				if g, w := got.Get(i), want.Get(i); g != w {
					t.Fatalf("%d bits, n=%d: row %d holds %d, the serial loop %d", width, n, i, g, w)
				}
			}
			if *split.src != *serial.src {
				t.Errorf("%d bits, n=%d: the sources differ after the column", width, n)
			}
		}
	}
}
