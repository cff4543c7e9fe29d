// Package memory provides the simulated physical address space that the
// query engine's data structures live in. Operators allocate regions
// (columns, dictionaries, hash tables, bit vectors) and translate their
// element indexes into physical addresses; the cache simulator consumes
// those addresses.
//
// Addresses are never dereferenced — real data lives in ordinary Go
// slices — but they decide cache set/tag placement, so allocation is
// page-granular to spread regions across cache sets like a real
// allocator would.
package memory

import "fmt"

// Addr is a simulated physical byte address.
type Addr uint64

const (
	// LineSize is the cache line size in bytes, fixed at 64 as on the
	// paper's Xeon E5-2699 v4.
	LineSize = 64
	// PageSize is the allocation granularity.
	PageSize = 4096
)

// Line returns the cache-line number containing the address.
func (a Addr) Line() uint64 { return uint64(a) / LineSize }

// Region is a named allocation in the simulated address space.
type Region struct {
	Name string
	Base Addr
	Size uint64
}

// Addr translates a byte offset within the region to a physical
// address. Offsets past the end are a programming error.
func (r Region) Addr(off uint64) Addr {
	if off >= r.Size {
		panic(fmt.Sprintf("memory: offset %d out of region %q of size %d", off, r.Name, r.Size))
	}
	return r.Base + Addr(off)
}

// Lines reports how many cache lines the region spans.
func (r Region) Lines() uint64 { return (r.Size + LineSize - 1) / LineSize }

// Contains reports whether the address falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// Space is a simulated physical address space with a bump allocator.
// It never recycles an address: recycling would let two logically
// distinct structures alias in the cache simulator. A Space is owned by
// one System, whose serial loop makes every call, so it holds no lock.
type Space struct {
	next Addr
}

// NewSpace returns an empty address space starting at one page, so that
// address zero is never handed out.
func NewSpace() *Space {
	return &Space{next: PageSize}
}

// Alloc reserves size bytes, page aligned, and returns the region.
// A zero size allocates one page so that every region has a distinct,
// valid base address.
func (s *Space) Alloc(name string, size uint64) Region {
	if size == 0 {
		size = PageSize
	}
	r := Region{Name: name, Base: s.next, Size: size}
	pages := (size + PageSize - 1) / PageSize
	s.next += Addr(pages * PageSize)
	return r
}

// Allocated reports the bytes handed out so far, in whole pages.
func (s *Space) Allocated() uint64 { return uint64(s.next - PageSize) }
