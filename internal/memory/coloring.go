package memory

import "fmt"

// Page coloring is the software cache-partitioning baseline the paper
// contrasts CAT with (Section V-A, related work [13], [15], [25]):
// because consecutive physical pages map to consecutive groups of
// cache sets, an allocator that hands a workload only pages of certain
// "colors" confines that workload's data to the matching fraction of
// the cache sets. Unlike CAT it needs no hardware support — but
// repartitioning requires copying data to differently-colored pages,
// which is why the paper judges it impractical for an in-memory DBMS.

// NumColors reports how many page colors a cache with the given set
// count has: the number of page-sized set groups.
func NumColors(sets int) int {
	linesPerPage := PageSize / LineSize
	n := sets / linesPerPage
	if n < 1 {
		return 1
	}
	return n
}

// ColorOf reports the color of the page containing the address, for a
// cache with the given color count.
func ColorOf(a Addr, numColors int) int {
	return int(uint64(a) / PageSize % uint64(numColors))
}

// ColoredRegion is a logically contiguous allocation backed by
// non-contiguous pages of restricted colors.
type ColoredRegion struct {
	Name  string
	pages []Addr // base address of each page, in logical order
	size  uint64
}

// Size reports the logical size in bytes.
func (r ColoredRegion) Size() uint64 { return r.size }

// Addr translates a logical byte offset to its physical address.
func (r ColoredRegion) Addr(off uint64) Addr {
	if off >= r.size {
		panic(fmt.Sprintf("memory: offset %d out of colored region %q of size %d", off, r.Name, r.size))
	}
	return r.pages[off/PageSize] + Addr(off%PageSize)
}

// AllocColored reserves size bytes using only pages of the given
// colors (with respect to numColors). Pages of other colors are
// skipped, mirroring a color-aware free list.
func (s *Space) AllocColored(name string, size uint64, colors []int, numColors int) (ColoredRegion, error) {
	if numColors < 1 {
		return ColoredRegion{}, fmt.Errorf("memory: color count %d", numColors)
	}
	if len(colors) == 0 {
		return ColoredRegion{}, fmt.Errorf("memory: empty color set")
	}
	allowed := make(map[int]bool, len(colors))
	for _, c := range colors {
		if c < 0 || c >= numColors {
			return ColoredRegion{}, fmt.Errorf("memory: color %d out of [0,%d)", c, numColors)
		}
		allowed[c] = true
	}
	if size == 0 {
		size = PageSize
	}
	need := int((size + PageSize - 1) / PageSize)
	r := ColoredRegion{Name: name, size: size, pages: make([]Addr, 0, need)}
	for len(r.pages) < need {
		page := s.next
		s.next += PageSize
		if allowed[ColorOf(page, numColors)] {
			r.pages = append(r.pages, page)
		}
	}
	return r, nil
}
