// Package column implements the columnar storage layer of the engine:
// order-preserving dictionaries, n-bit-packed code vectors, columns,
// tables and inverted indexes — the data structures Section II of the
// paper identifies as performance-critical (dictionary, hash table,
// bit vector live in internal/exec).
//
// All structures hold their real data in Go slices and additionally
// occupy a region of the simulated address space, so operators can
// report the cache lines they touch.
package column

import (
	"fmt"
	"math"
	"math/bits"

	"cachepart/internal/memory"
)

// Dictionary maps a column's domain values to a dense range of integer
// codes 0..N-1 in value order, so range predicates can be evaluated on
// codes directly (order-preserving encoding, Section II).
//
// The domain is the contiguous range lo..lo+N-1, which is how the
// paper's generated data sets (values 1..N) are stored, so the values
// are never materialised: code c decodes to lo+c.
type Dictionary struct {
	n         uint32
	lo        int64
	entrySize uint64
	region    memory.Region
}

// DefaultEntrySize is the bytes-per-entry of an integer dictionary:
// the paper's 10^6 distinct INTs make a 4 MiB dictionary, i.e. 4 B per
// entry.
const DefaultEntrySize = 4

// NewDenseDictionary builds a dictionary for the contiguous domain
// [lo, hi]. entrySize controls the simulated footprint per entry
// (DefaultEntrySize for INT columns; wider for NVARCHAR-like columns).
func NewDenseDictionary(space *memory.Space, name string, lo, hi int64, entrySize uint64) (*Dictionary, error) {
	if hi < lo {
		return nil, fmt.Errorf("column: dense dictionary range [%d,%d] empty", lo, hi)
	}
	// The span is taken in uint64, where hi−lo cannot overflow; a
	// domain of all 2^64 values wraps n to 0.
	n := uint64(hi) - uint64(lo) + 1
	if n == 0 || n > math.MaxUint32 {
		return nil, fmt.Errorf("column: dense dictionary range [%d,%d] exceeds the 32-bit code space", lo, hi)
	}
	if entrySize == 0 {
		entrySize = DefaultEntrySize
	}
	d := &Dictionary{n: uint32(n), lo: lo, entrySize: entrySize}
	d.region = space.Alloc(name+".dict", n*entrySize)
	return d, nil
}

// Len reports the number of dictionary entries.
func (d *Dictionary) Len() int { return int(d.n) }

// Bytes reports the simulated dictionary size.
func (d *Dictionary) Bytes() uint64 { return uint64(d.n) * d.entrySize }

// EntrySize reports bytes per entry.
func (d *Dictionary) EntrySize() uint64 { return d.entrySize }

// Region exposes the simulated allocation.
func (d *Dictionary) Region() memory.Region { return d.region }

// Value decodes a code. Codes out of range panic: they indicate a
// corrupted vector, not a user error.
func (d *Dictionary) Value(code uint32) int64 {
	if code >= d.n {
		panic(fmt.Sprintf("column: code %d out of dictionary of %d", code, d.n))
	}
	return d.lo + int64(code)
}

// Addr returns the address of the first byte of a code's entry — the
// line an operator touches to decompress the value.
func (d *Dictionary) Addr(code uint32) memory.Addr {
	return d.region.Addr(uint64(code) * d.entrySize)
}

// CodeOf finds the exact code of a value.
func (d *Dictionary) CodeOf(value int64) (uint32, bool) {
	if value < d.lo || uint64(value)-uint64(d.lo) >= uint64(d.n) {
		return 0, false
	}
	return uint32(value - d.lo), true
}

// LowerBound returns the smallest code whose value is >= v, or Len()
// if none. Order preservation makes range predicates on codes exact.
func (d *Dictionary) LowerBound(v int64) uint32 {
	switch {
	case v <= d.lo:
		return 0
	case v > d.lo+int64(d.n-1):
		return d.n
	default:
		return uint32(v - d.lo)
	}
}

// CodeBits reports how many bits a packed code for this dictionary
// needs: ceil(log2(N)), at least 1.
func (d *Dictionary) CodeBits() uint {
	if d.n <= 1 {
		return 1
	}
	return uint(bits.Len32(d.n - 1))
}
