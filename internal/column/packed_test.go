package column

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cachepart/internal/memory"
)

// Set stores a code at index i, a masked read-modify-write of the one
// or two words the code spans. It is the oracle for PackRun: the
// per-row writer the run writer replaced.
func (v *PackedVector) Set(i int, code uint32) {
	if uint(i) >= uint(v.n) {
		panic(indexError{i, v.n})
	}
	if uint64(code)>>v.bits != 0 {
		panic(codeError{code, v.bits})
	}
	bitPos := uint64(i) * uint64(v.bits)
	w, off := bitPos/64, bitPos%64
	mask := uint64(1)<<v.bits - 1
	v.words[w] = v.words[w]&^(mask<<off) | uint64(code)<<off
	if off+uint64(v.bits) > 64 {
		// The code's high bits spill into the next word's low bits.
		v.words[w+1] = v.words[w+1]&^(mask>>(64-off)) | uint64(code)>>(64-off)
	}
}

// packBySet writes codes into rows [from, from+len(codes)) of one copy
// of base with PackRun and of another with the Set loop, and returns
// the two copies' words.
func packBySet(base *PackedVector, from int, codes []uint32) (got, want []uint64) {
	oracle := *base
	oracle.words = append([]uint64(nil), base.words...)
	for j, c := range codes {
		oracle.Set(from+j, c)
	}
	run := *base
	run.words = append([]uint64(nil), base.words...)
	run.PackRun(from, codes)
	return run.words, oracle.words
}

// countByGet is the oracle for CountInRange: the per-row Get loop the
// word-level decoder replaced.
func countByGet(v *PackedVector, from, to int, lo, hi uint32) int64 {
	var cnt int64
	for i := from; i < to; i++ {
		if c := v.Get(i); c >= lo && c < hi {
			cnt++
		}
	}
	return cnt
}

func maxCode(bits uint) uint32 { return uint32(uint64(1)<<bits - 1) }

func randomVector(t testing.TB, n int, bits uint, rng *rand.Rand) *PackedVector {
	t.Helper()
	v, err := NewPackedVector(memory.NewSpace(), "p", n, bits)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v.Set(i, rng.Uint32()&maxCode(bits))
	}
	return v
}

// TestCountInRangeMatchesGetLoop compares the decoder with the Get loop
// for every code width: whole vector, every single row and every
// (from, to) near the front (so from lands on each in-word offset and
// codes straddle words), ranges ending at Len() inside the last partial
// word, and random ranges and predicates.
func TestCountInRangeMatchesGetLoop(t *testing.T) {
	for bits := uint(1); bits <= 32; bits++ {
		rng := rand.New(rand.NewSource(int64(bits)))
		// 203 rows: the last word is partial at every width.
		const n = 203
		v := randomVector(t, n, bits, rng)
		top := maxCode(bits)
		check := func(from, to int, lo, hi uint32) {
			t.Helper()
			if got, want := v.CountInRange(from, to, lo, hi), countByGet(v, from, to, lo, hi); got != want {
				t.Fatalf("bits=%d: CountInRange(%d, %d, %d, %d) = %d, Get loop counts %d", bits, from, to, lo, hi, got, want)
			}
		}
		lo, hi := top/4, top/4*3+1
		check(0, n, lo, hi)
		check(0, n, 0, top) // all but the largest code
		if bits < 32 {
			check(0, n, 0, 1<<bits) // hi one past the largest code
		}
		for i := 0; i < n; i++ {
			check(i, i+1, lo, hi)
			check(i, n, lo, hi)
		}
		for from := 0; from < 70; from++ {
			for to := from; to < 70; to++ {
				check(from, to, lo, hi)
			}
		}
		for i := 0; i < 300; i++ {
			from, to := rng.Intn(n+1), rng.Intn(n+1)
			check(from, to, rng.Uint32()&top, rng.Uint32()&top)
			check(from, to, rng.Uint32(), rng.Uint32())
		}
	}
}

// TestPackRunMatchesSet compares the run writer with the Set loop for
// every code width, over a vector already holding random codes, so the
// bits outside the run must survive. Every run (from, to) near the
// front is written: from lands on each in-word offset, and to ends
// before, on and after a word boundary at every width.
func TestPackRunMatchesSet(t *testing.T) {
	for bits := uint(1); bits <= 32; bits++ {
		rng := rand.New(rand.NewSource(int64(bits)))
		const n = 203
		base := randomVector(t, n, bits, rng)
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = rng.Uint32() & maxCode(bits)
		}
		for from := 0; from < 70; from++ {
			for to := from; to <= 140; to++ {
				got, want := packBySet(base, from, codes[from:to])
				if !slices.Equal(got, want) {
					t.Fatalf("bits=%d: PackRun over rows [%d, %d) wrote %x, Set loop %x", bits, from, to, got, want)
				}
			}
		}
		// Runs that end at Len(), inside the last partial word.
		for from := n - 70; from <= n; from++ {
			if got, want := packBySet(base, from, codes[from:]); !slices.Equal(got, want) {
				t.Fatalf("bits=%d: PackRun over rows [%d, %d) wrote %x, Set loop %x", bits, from, n, got, want)
			}
		}
	}
}

func TestCountInRangeContract(t *testing.T) {
	v := randomVector(t, 4, 8, rand.New(rand.NewSource(1)))
	// A range outside the vector panics once, with Get's message for
	// the offending bound.
	for _, tc := range []struct {
		from, to int
		msg      string
	}{
		{-1, 3, "column: index -1 out of 4"},
		{0, 5, "column: index 5 out of 4"},
		{-2, 9, "column: index -2 out of 4"},
	} {
		if got := panicMessage(func() { v.CountInRange(tc.from, tc.to, 0, 10) }); got != tc.msg {
			t.Errorf("CountInRange(%d, %d): panic %q, want %q", tc.from, tc.to, got, tc.msg)
		}
	}
	// Empty row ranges and empty code ranges count nothing.
	for _, tc := range [][4]int{{2, 2, 0, 255}, {3, 1, 0, 255}, {5, 3, 0, 255}, {4, 4, 0, 255}, {0, 4, 7, 7}, {0, 4, 9, 3}} {
		if got := v.CountInRange(tc[0], tc[1], uint32(tc[2]), uint32(tc[3])); got != 0 {
			t.Errorf("CountInRange(%v) = %d, want 0", tc, got)
		}
	}
	// The whole vector, up to and including Len().
	if got := v.CountInRange(0, v.Len(), 0, 256); got != 4 {
		t.Errorf("CountInRange over all rows and codes = %d, want 4", got)
	}

	// 32-bit codes: the largest code is countable only with lo alone,
	// since hi cannot exceed it.
	w, _ := NewPackedVector(memory.NewSpace(), "w", 3, 32)
	w.Set(0, 0)
	w.Set(1, 1<<31)
	w.Set(2, ^uint32(0))
	if got := w.CountInRange(0, 3, 0, ^uint32(0)); got != 2 {
		t.Errorf("32-bit [0, max) = %d, want 2", got)
	}
	if got := w.CountInRange(0, 3, 1<<31, 1<<31+1); got != 1 {
		t.Errorf("32-bit [2^31, 2^31+1) = %d, want 1", got)
	}
}

// TestPackedVectorPanicMessages pins the messages of the typed panic
// values that keep Get inlinable, which PackRun raises too.
func TestPackedVectorPanicMessages(t *testing.T) {
	v, _ := NewPackedVector(memory.NewSpace(), "p", 4, 8)
	for _, tc := range []struct {
		f   func()
		msg string
	}{
		{func() { v.Get(-1) }, "column: index -1 out of 4"},
		{func() { v.Get(4) }, "column: index 4 out of 4"},
		{func() { v.Set(7, 0) }, "column: index 7 out of 4"},
		{func() { v.Set(0, 256) }, "column: code 256 exceeds 8 bits"},
		{func() { v.PackRun(-1, []uint32{0}) }, "column: index -1 out of 4"},
		{func() { v.PackRun(3, []uint32{0, 0}) }, "column: index 4 out of 4"},
		{func() { v.PackRun(6, nil) }, "column: index 6 out of 4"},
		{func() { v.PackRun(1, []uint32{0, 256}) }, "column: code 256 exceeds 8 bits"},
	} {
		if got := panicMessage(tc.f); got != tc.msg {
			t.Errorf("panic %q, want %q", got, tc.msg)
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return "no panic"
}

// FuzzCountInRange builds a vector from the fuzzer's bytes (four per
// code, masked to the width) and compares CountInRange with the Get
// loop on a fuzzer-chosen range and predicate. The seed corpus is
// testdata/fuzz/FuzzCountInRange.
func FuzzCountInRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width uint8, from, to uint16, lo, hi uint32) {
		bits := uint(width)%32 + 1
		n := len(data) / 4
		v, err := NewPackedVector(memory.NewSpace(), "f", n, bits)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			d := data[4*i:]
			v.Set(i, (uint32(d[0])|uint32(d[1])<<8|uint32(d[2])<<16|uint32(d[3])<<24)&maxCode(bits))
		}
		a, b := int(from)%(n+1), int(to)%(n+1)
		if got, want := v.CountInRange(a, b, lo, hi), countByGet(v, a, b, lo, hi); got != want {
			t.Fatalf("bits=%d n=%d: CountInRange(%d, %d, %d, %d) = %d, Get loop counts %d", bits, n, a, b, lo, hi, got, want)
		}
	})
}

// FuzzPackRun builds a vector of all-ones codes and writes a run of
// fuzzer codes (four bytes each, masked to the width) over a
// fuzzer-chosen row range with PackRun, and over a copy with the Set
// loop, and compares the words. The seed corpus is
// testdata/fuzz/FuzzPackRun.
func FuzzPackRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width uint8, from, to uint16) {
		bits := uint(width)%32 + 1
		n := len(data) / 4
		base, err := NewPackedVector(memory.NewSpace(), "f", n, bits)
		if err != nil {
			t.Fatal(err)
		}
		codes := make([]uint32, n)
		for i := range codes {
			d := data[4*i:]
			codes[i] = (uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24) & maxCode(bits)
			base.Set(i, maxCode(bits))
		}
		a, b := int(from)%(n+1), int(to)%(n+1)
		a, b = min(a, b), max(a, b)
		if got, want := packBySet(base, a, codes[a:b]); !slices.Equal(got, want) {
			t.Fatalf("bits=%d n=%d: PackRun over rows [%d, %d) wrote %x, Set loop %x", bits, n, a, b, got, want)
		}
	})
}
