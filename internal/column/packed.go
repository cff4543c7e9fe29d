package column

import (
	"fmt"

	"cachepart/internal/memory"
)

// PackedVector stores n codes of a fixed bit width contiguously, the
// compressed representation SAP HANA's column scan operates on directly
// (Section II / [7], [8]). Codes may straddle 64-bit word boundaries.
type PackedVector struct {
	bits   uint
	n      int
	words  []uint64
	region memory.Region
}

// NewPackedVector allocates a vector for n codes of the given width.
func NewPackedVector(space *memory.Space, name string, n int, bits uint) (*PackedVector, error) {
	if n < 0 {
		return nil, fmt.Errorf("column: negative length %d", n)
	}
	if bits == 0 || bits > 32 {
		return nil, fmt.Errorf("column: code width %d out of range [1,32]", bits)
	}
	totalBits := uint64(n) * uint64(bits)
	words := (totalBits + 63) / 64
	if words == 0 {
		words = 1
	}
	v := &PackedVector{
		bits:  bits,
		n:     n,
		words: make([]uint64, words),
	}
	v.region = space.Alloc(name+".codes", words*8)
	return v, nil
}

// Len reports the number of codes.
func (v *PackedVector) Len() int { return v.n }

// Bits reports the code width.
func (v *PackedVector) Bits() uint { return v.bits }

// Bytes reports the simulated (and real) storage size.
func (v *PackedVector) Bytes() uint64 { return uint64(len(v.words)) * 8 }

// Region exposes the simulated allocation.
func (v *PackedVector) Region() memory.Region { return v.region }

// indexError and codeError are the panic values of an out-of-range row
// or an over-wide code. They format on demand: a fmt call (or a call to
// an out-of-line helper making one) in Get's body would by itself
// exceed the compiler's inlining budget, and Get runs once per row in
// every kernel but the scan.
type indexError struct{ i, n int }

func (e indexError) Error() string { return fmt.Sprintf("column: index %d out of %d", e.i, e.n) }

type codeError struct {
	code uint32
	bits uint
}

func (e codeError) Error() string {
	return fmt.Sprintf("column: code %d exceeds %d bits", e.code, e.bits)
}

// PackRun stores codes in rows [from, from+len(codes)), in order, and
// keeps every bit outside those rows. It is the one writer of a
// vector's codes: it holds the word being filled in a register and
// stores it once per 64 bits. A run that reaches outside the vector
// panics before it writes, naming its first row outside; a code wider
// than the vector's width is rejected as corruption.
func (v *PackedVector) PackRun(from int, codes []uint32) {
	if from < 0 {
		panic(indexError{from, v.n})
	}
	if len(codes) > v.n-from {
		panic(indexError{max(from, v.n), v.n})
	}
	if len(codes) == 0 {
		return
	}
	// Shift counts are masked to 63, which they never exceed, so each
	// shift compiles to one instruction.
	bits := uint64(v.bits)
	top := uint32(uint64(1)<<bits - 1)
	pos := uint64(from) * bits
	w, off := pos/64, pos%64
	word := v.words[w] & (uint64(1)<<off - 1)
	for _, c := range codes {
		if c > top {
			panic(codeError{c, v.bits})
		}
		word |= uint64(c) << (off & 63)
		off += bits
		if off >= 64 {
			v.words[w] = word
			w++
			off -= 64
			// The code's high off bits spill into the next word.
			word = uint64(c) >> ((bits - off) & 63)
		}
	}
	if off > 0 {
		v.words[w] = word | v.words[w]&^(uint64(1)<<off-1)
	}
}

// Get loads the code at index i.
func (v *PackedVector) Get(i int) uint32 {
	if uint(i) >= uint(v.n) {
		panic(indexError{i, v.n})
	}
	bitPos := uint64(i) * uint64(v.bits)
	w, off := bitPos/64, bitPos%64
	val := v.words[w] >> off
	if off+uint64(v.bits) > 64 {
		val |= v.words[w+1] << (64 - off)
	}
	return uint32(val & (uint64(1)<<v.bits - 1))
}

// Addr returns the byte address holding the first bit of code i, the
// line a point access touches.
func (v *PackedVector) Addr(i int) memory.Addr {
	bitPos := uint64(i) * uint64(v.bits)
	return v.region.Addr(bitPos / 8 / 8 * 8) // word-aligned byte offset
}

// LineOfRow reports which cache line (0-based within the region) holds
// row i, so scans can detect line boundaries.
func (v *PackedVector) LineOfRow(i int) uint64 {
	bitPos := uint64(i) * uint64(v.bits)
	return bitPos / 8 / memory.LineSize
}

// StartCountInRange starts CountInRange(from, to, lo, hi) on a
// goroutine of its own and returns the channel its one result arrives
// on. The channel has capacity one, so the send never blocks and a
// caller that loses interest may simply drop the channel. This is the
// only place the simulator starts a goroutine, and it is here rather
// than beside its one caller (exec.ColumnScan) so that the import
// graph keeps the helper honest: this package imports nothing but
// memory, so the goroutine can hold the immutable vector and its four
// arguments and cannot reach a clock, a cache or an access stream.
func (v *PackedVector) StartCountInRange(from, to int, lo, hi uint32) <-chan int64 {
	// One channel, closure and goroutine per scan-kernel execution, not
	// per slice; exec's TestColumnScanStepZeroAllocs pins the steady state.
	result := make(chan int64, 1)
	go func() { result <- v.CountInRange(from, to, lo, hi) }()
	return result
}

// CountInRange counts codes c with lo <= c < hi over rows [from, to),
// the kernel of the compressed column scan. A range outside the vector
// (from < 0 or to > Len) panics like Get on the offending bound; an
// empty row range or an empty code range (hi <= lo) counts nothing.
//
// It decodes the packed words directly. The row range is checked once
// per call, not per code; a running bit position replaces Get's
// multiply; a code is one word load, shift and mask, plus the next
// word's low bits when it straddles; and the predicate is one unsigned
// subtract and compare with no branch: lo <= c < hi exactly when
// c-lo < hi-lo in wrapping arithmetic.
func (v *PackedVector) CountInRange(from, to int, lo, hi uint32) int64 {
	if from < 0 {
		panic(indexError{from, v.n})
	}
	if to > v.n {
		panic(indexError{to, v.n})
	}
	if from >= to || hi <= lo {
		return 0
	}
	bits := uint64(v.bits)
	mask := uint64(1)<<bits - 1
	span := uint64(hi - lo)
	words := v.words
	pos := uint64(from) * bits
	var cnt uint64
	for n := to - from; n > 0; n-- {
		w, off := pos/64, pos%64
		c := words[w] >> off
		if off+bits > 64 {
			c |= words[w+1] << (64 - off)
		}
		// The subtraction borrows into bit 63 exactly when c-lo < span.
		cnt += (uint64(uint32(c&mask)-lo) - span) >> 63
		pos += bits
	}
	return int64(cnt)
}
