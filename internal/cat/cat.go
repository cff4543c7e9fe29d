// Package cat models Intel Cache Allocation Technology (CAT) as exposed
// by the processor: a small table of classes of service (CLOS), each
// holding a capacity bitmask over the ways of the last-level cache, and
// a per-logical-core association to one CLOS.
//
// The model mirrors the semantics described in the paper (Section V-A):
// setting bit i of a core's mask allows that core to evict (fill into)
// the i-th portion of the LLC; clearing it forbids eviction from that
// portion. Hits are unrestricted. Masks must be non-empty and
// contiguous, as required by the hardware.
package cat

import (
	"fmt"
	"math/bits"
)

// WayMask is a capacity bitmask over LLC ways. Bit i set means the
// associated cores may fill into way i.
type WayMask uint32

// FullMask returns the mask with the lowest ways bits set, i.e. access
// to the entire cache.
func FullMask(ways int) WayMask {
	if ways <= 0 {
		return 0
	}
	if ways >= 32 {
		return ^WayMask(0)
	}
	return WayMask(1)<<uint(ways) - 1
}

// PortionMask returns a contiguous mask covering approximately the
// given fraction of a cache with the given number of ways, anchored at
// way 0. The mask always contains at least one way. fraction values
// outside (0, 1] are clamped.
func PortionMask(ways int, fraction float64) WayMask {
	if fraction >= 1 {
		return FullMask(ways)
	}
	n := int(fraction*float64(ways) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > ways {
		n = ways
	}
	return FullMask(n)
}

// Ways reports the number of ways the mask grants.
func (m WayMask) Ways() int { return bits.OnesCount32(uint32(m)) }

// Contiguous reports whether the set bits of the mask form one run,
// which the hardware requires.
func (m WayMask) Contiguous() bool {
	if m == 0 {
		return false
	}
	v := uint32(m) >> bits.TrailingZeros32(uint32(m))
	return v&(v+1) == 0
}

// String formats the mask in the 0x form used throughout the paper
// (e.g. "0x3", "0xfffff").
func (m WayMask) String() string { return fmt.Sprintf("%#x", uint32(m)) }

// Registers models the CAT register file of one processor socket:
// NumCLOS capacity masks and a per-core CLOS association. The zero
// value is not usable; construct with NewRegisters.
type Registers struct {
	numWays  int
	numCores int
	masks    []WayMask
	coreCLOS []int
	// writes counts mask and association register writes, mirroring
	// the paper's concern about per-write overhead (Section V-C).
	writes int
}

// NewRegisters creates a register file for a socket with the given
// logical core count, LLC way count, and number of classes of service.
// CLOS 0 is initialised to the full mask and every core starts in
// CLOS 0, matching hardware reset state.
func NewRegisters(cores, ways, numCLOS int) (*Registers, error) {
	switch {
	case cores <= 0:
		return nil, fmt.Errorf("cat: core count %d must be positive", cores)
	case ways <= 0 || ways > 32:
		return nil, fmt.Errorf("cat: way count %d out of range [1,32]", ways)
	case numCLOS <= 0:
		return nil, fmt.Errorf("cat: CLOS count %d must be positive", numCLOS)
	}
	r := &Registers{
		numWays:  ways,
		numCores: cores,
		masks:    make([]WayMask, numCLOS),
		coreCLOS: make([]int, cores),
	}
	for i := range r.masks {
		r.masks[i] = FullMask(ways)
	}
	return r, nil
}

// NumWays reports the LLC way count the register file was built for.
func (r *Registers) NumWays() int { return r.numWays }

// NumCLOS reports how many classes of service are available.
func (r *Registers) NumCLOS() int { return len(r.masks) }

// Writes reports how many register writes have been performed, for
// overhead accounting.
func (r *Registers) Writes() int { return r.writes }

// SetMask programs the capacity mask of a CLOS. It enforces the
// hardware constraints: the mask must be non-empty, contiguous, and
// within the way count.
func (r *Registers) SetMask(clos int, mask WayMask) error {
	if clos < 0 || clos >= len(r.masks) {
		return fmt.Errorf("cat: CLOS %d out of range [0,%d)", clos, len(r.masks))
	}
	if mask == 0 {
		return fmt.Errorf("cat: empty capacity mask")
	}
	if mask&^FullMask(r.numWays) != 0 {
		return fmt.Errorf("cat: mask %v exceeds %d ways", mask, r.numWays)
	}
	if !mask.Contiguous() {
		return fmt.Errorf("cat: mask %v is not contiguous", mask)
	}
	r.masks[clos] = mask
	r.writes++
	return nil
}

// Mask returns the capacity mask programmed for a CLOS.
func (r *Registers) Mask(clos int) WayMask {
	if clos < 0 || clos >= len(r.masks) {
		return 0
	}
	return r.masks[clos]
}

// Associate moves a logical core into a CLOS, as the kernel scheduler
// does on context switch when a task's group changes.
func (r *Registers) Associate(core, clos int) error {
	if core < 0 || core >= r.numCores {
		return fmt.Errorf("cat: core %d out of range [0,%d)", core, r.numCores)
	}
	if clos < 0 || clos >= len(r.masks) {
		return fmt.Errorf("cat: CLOS %d out of range [0,%d)", clos, len(r.masks))
	}
	r.coreCLOS[core] = clos
	r.writes++
	return nil
}

// CLOSOf reports the CLOS a core is associated with.
func (r *Registers) CLOSOf(core int) int {
	if core < 0 || core >= r.numCores {
		return 0
	}
	return r.coreCLOS[core]
}

// MaskOf reports the effective capacity mask of a core: the mask of its
// CLOS. This is what the cache controller consults on a fill.
func (r *Registers) MaskOf(core int) WayMask {
	return r.masks[r.CLOSOf(core)]
}
