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

import (
	"fmt"
	"sort"
	"sync"
)

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
// The zero value is ready to use. Space is safe for concurrent use.
type Space struct {
	mu      sync.Mutex
	next    Addr
	regions []Region
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
	s.mu.Lock()
	if size == 0 {
		size = PageSize
	}
	r := Region{Name: name, Base: s.next, Size: size}
	pages := (size + PageSize - 1) / PageSize
	s.next += Addr(pages * PageSize)
	s.regions = append(s.regions, r)
	s.mu.Unlock()
	return r
}

// Free releases a region for accounting purposes. The bump allocator
// does not recycle addresses — recycling would let two logically
// distinct structures alias in the cache simulator — so Free only
// removes the region from the inventory.
func (s *Space) Free(r Region) {
	s.mu.Lock()
	for i := range s.regions {
		if s.regions[i].Base == r.Base {
			s.regions = append(s.regions[:i], s.regions[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// Allocated reports the total bytes currently allocated.
func (s *Space) Allocated() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, r := range s.regions {
		total += r.Size
	}
	return total
}

// Regions returns a snapshot of live regions ordered by base address.
func (s *Space) Regions() []Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Region, len(s.regions))
	copy(out, s.regions)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Lookup finds the region containing the address, if any.
func (s *Space) Lookup(a Addr) (Region, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}
