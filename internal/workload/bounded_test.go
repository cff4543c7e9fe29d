package workload

import (
	"encoding/binary"
	"fmt"
	"math"
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

// encodeSerially is the loop EncodeUniformColumns replaces: each
// column allocated, then drawn from r 256 codes at a time, in list
// order.
func encodeSerially(t *testing.T, space *memory.Space, r *Rand, specs []UniformSpec) []*column.Column {
	t.Helper()
	var cols []*column.Column
	for _, sp := range specs {
		dict, err := column.NewDenseDictionary(space, sp.Name, sp.Lo, sp.Hi, sp.EntrySize)
		if err != nil {
			t.Fatal(err)
		}
		codes, err := column.NewPackedVector(space, sp.Name, sp.Rows, dict.CodeBits())
		if err != nil {
			t.Fatal(err)
		}
		d := newBounded(sp.Hi - sp.Lo + 1)
		var run [256]uint32
		for from := 0; from < sp.Rows; from += len(run) {
			run := run[:min(len(run), sp.Rows-from)]
			d.fill(r.src, run)
			codes.PackRun(from, run)
		}
		cols = append(cols, &column.Column{Name: sp.Name, Dict: dict, Codes: codes})
	}
	return cols
}

// rejecting returns a Rand at seed whose next 607 raw draws lie just
// under 2^63, at gaps spread from 0 to 2^32, so that the first column
// drawn sees rejections: every bound below 2^32 that is not a power of
// two rejects some of them, and TestEncodeColumnsMatchesSerial's five
// bounds each a different number. A code column's bound otherwise
// rejects at most about one draw in 2^31.
func rejecting(seed int64) *Rand {
	r := NewRand(seed)
	for i, u := range r.src.buf[r.src.pos:] {
		r.src.buf[r.src.pos+i] = math.MaxInt64 - u&(1<<32-1)>>(u>>59)
	}
	return r
}

// checkEncodeColumns compares EncodeUniformColumns with encodeSerially
// from two copies of r: the same regions, the same code in every row,
// and the same source state after.
func checkEncodeColumns(t *testing.T, r *Rand, specs []UniformSpec) {
	t.Helper()
	serial := &Rand{src: new(source)}
	*serial.src = *r.src
	// The serial columns are built first, so that the comparison starts
	// the moment the job returns.
	want := encodeSerially(t, memory.NewSpace(), serial, specs)
	got, err := EncodeUniformColumns(memory.NewSpace(), r, specs)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		g := got[k]
		if g.Dict.Region() != w.Dict.Region() || g.Codes.Region() != w.Codes.Region() || g.Codes.Bits() != w.Codes.Bits() {
			t.Fatalf("column %d: regions %v %v, %d bits; serially %v %v, %d bits", k,
				g.Dict.Region(), g.Codes.Region(), g.Codes.Bits(), w.Dict.Region(), w.Codes.Region(), w.Codes.Bits())
		}
		for i := range w.Rows() {
			if gc, wc := g.Codes.Get(i), w.Codes.Get(i); gc != wc {
				t.Fatalf("column %d (%d bits) row %d holds %d, the serial loop %d", k, w.Codes.Bits(), i, gc, wc)
			}
		}
	}
	if *r.src != *serial.src {
		t.Errorf("the sources differ after the columns")
	}
}

// TestEncodeColumnsMatchesSerial checks the split job against the
// serial loop it replaces, with the split inside the first, a middle
// and the last column, and exactly on a column boundary, at widths of
// 1, 7, 19, 27 and 32 bits. Each side holds just over minHalf draws.
// The source rejects draws in the first column, so a skip that used
// another column's bound would land elsewhere.
func TestEncodeColumnsMatchesSerial(t *testing.T) {
	const h = minHalf
	hi := map[uint]int64{1: 2, 7: 100, 19: 312500, 27: 100_000_000, 32: 3 << 30}
	cols := func(rows []int, widths ...uint) []UniformSpec {
		specs := make([]UniformSpec, len(rows))
		for i, n := range rows {
			specs[i] = UniformSpec{Name: fmt.Sprintf("c%d", i), Rows: n, Lo: 1, Hi: hi[widths[i]], EntrySize: 8}
		}
		return specs
	}
	for _, c := range []struct {
		name  string
		specs []UniformSpec
		col   int
		inner bool // the split falls inside column col, not at its start
	}{
		{"first", cols([]int{2*h + 300, 1000, 7}, 19, 7, 32), 0, true},
		{"middle", cols([]int{h/2 + 5, h + 77, h/2 + 9}, 7, 27, 1), 1, true},
		{"last", cols([]int{h/2 + 3, h/4 + 1, 5*h/4 + 11}, 27, 1, 32), 2, true},
		{"boundary", cols([]int{h, h + 300}, 19, 32), 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			col, mid, ok := split(c.specs)
			if !ok || col != c.col || mid%256 != 0 || (mid > 0) != c.inner {
				t.Fatalf("split at row %d of column %d (ok %v), want a multiple of 256 in column %d", mid, col, ok, c.col)
			}
			checkEncodeColumns(t, rejecting(3), c.specs)
		})
	}
}

// FuzzEncodeColumns checks EncodeUniformColumns against the serial loop
// for up to eight columns laid out by layout after its first byte,
// seven bytes each: three of rows (below 3·minHalf in all, so that a
// run stays well under a second) and four of the bound, from 2 to
// 2^32−1. An odd first byte draws from a rejecting source.
func FuzzEncodeColumns(f *testing.F) {
	f.Add(int64(1), []byte{1, 0x07, 0x00, 0x40, 0xff, 0xff, 0xff, 0xff})
	f.Add(int64(5), []byte{0, 0x05, 0x00, 0x18, 0x1f, 0x00, 0x00, 0x00, 0x4d, 0x01, 0x20, 0xa0, 0x86, 0x01, 0x00, 0x00, 0x00, 0x18, 0x63, 0x00, 0x00, 0x00})
	f.Add(int64(-7), []byte{3, 0x00, 0x00, 0x20, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0xc0})
	f.Add(int64(42), []byte{0, 0xff, 0x10, 0x00, 0x0b, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, layout []byte) {
		if len(layout) == 0 {
			return
		}
		r := NewRand(seed)
		if layout[0]&1 == 1 {
			r = rejecting(seed)
		}
		var specs []UniformSpec
		total := 0
		for b := layout[1:]; len(b) >= 7 && len(specs) < 8; b = b[7:] {
			rows := min((int(b[0])|int(b[1])<<8|int(b[2])<<16)%(3*minHalf), 3*minHalf-total)
			hi := max(int64(binary.LittleEndian.Uint32(b[3:])), 2)
			specs = append(specs, UniformSpec{Name: fmt.Sprintf("c%d", len(specs)), Rows: rows, Lo: 1, Hi: hi, EntrySize: 8})
			total += rows
		}
		checkEncodeColumns(t, r, specs)
	})
}
