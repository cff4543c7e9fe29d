// Package core distils the paper's contribution: classifying database
// operators by cache-usage behaviour (Section V-C's cache usage
// identifiers) and mapping each class to a CAT capacity mask following
// the partitioning scheme derived from the micro-benchmarks
// (Section V-B):
//
//   - polluting operators (column scan) are restricted to 10% of the
//     LLC ("0x3" on a 20-way cache);
//   - cache-sensitive operators (grouped aggregation) keep the entire
//     cache ("0xfffff");
//   - operators that can be either (foreign-key join) are decided by a
//     bit-vector-size heuristic: 10% when the vector is far from the
//     LLC size, 60% ("0xfff") when it is comparable.
package core

import (
	"fmt"

	"cachepart/internal/cat"
)

// CUID is a cache usage identifier annotated on scheduler jobs.
type CUID int

const (
	// Unset is the zero value: a job that was never classified. The
	// engine rejects a phase that carries it, so an omitted CUID fails
	// the run instead of passing for a sensitive one.
	Unset CUID = iota
	// Sensitive marks jobs which are cache-sensitive and profit from
	// the entire cache, category (ii). A job that is deliberately left
	// unclassified names it, so that it can never regress.
	Sensitive
	// Polluting marks jobs which are not cache-sensitive and pollute
	// the cache, category (i), such as the column scan.
	Polluting
	// Depends marks jobs which can be either, category (iii), such as
	// the foreign-key join; the decision is data-dependent.
	Depends
)

// String names the identifier.
func (c CUID) String() string {
	switch c {
	case Unset:
		return "unset"
	case Sensitive:
		return "sensitive"
	case Polluting:
		return "polluting"
	case Depends:
		return "depends"
	default:
		return fmt.Sprintf("CUID(%d)", int(c))
	}
}

// Footprint carries the data-dependent hints the policy consults for
// Depends jobs.
type Footprint struct {
	// BitVectorBytes is the size of the join's bit vector.
	BitVectorBytes uint64
}

// Policy is the partitioning scheme: which fraction of the LLC each
// job class may fill into.
type Policy struct {
	// Enabled turns partitioning on; when false every class gets the
	// full mask (the paper's baseline configuration).
	Enabled bool

	// LLCWays and LLCBytes describe the cache being partitioned.
	LLCWays  int
	LLCBytes uint64

	// PollutingFraction is the slice left to polluting jobs (10% in
	// the paper — never a single way, which the paper found to cause
	// contention, see the note in Section V-B).
	PollutingFraction float64

	// DependsLargeFraction is the slice for Depends jobs whose data
	// structure is comparable to the LLC (60% in the paper).
	DependsLargeFraction float64

	// SensitiveLo/SensitiveHi bound the "comparable to the LLC" band
	// of the bit-vector heuristic as fractions of the LLC size: a
	// vector inside [LLCBytes*SensitiveLo, LLCBytes*SensitiveHi] makes
	// the join cache-sensitive.
	SensitiveLo float64
	SensitiveHi float64
}

// DefaultPolicy returns the paper's scheme for an LLC of the given
// geometry, initially disabled.
func DefaultPolicy(llcBytes uint64, llcWays int) Policy {
	return Policy{
		LLCWays:              llcWays,
		LLCBytes:             llcBytes,
		PollutingFraction:    0.10,
		DependsLargeFraction: 0.60,
		SensitiveLo:          0.125,
		SensitiveHi:          1.5,
	}
}

// Validate checks the policy parameters.
func (p Policy) Validate() error {
	if p.LLCWays <= 0 || p.LLCWays > 32 {
		return fmt.Errorf("core: LLC way count %d out of range", p.LLCWays)
	}
	if p.LLCBytes == 0 {
		return fmt.Errorf("core: zero LLC size")
	}
	if p.PollutingFraction <= 0 || p.PollutingFraction > 1 {
		return fmt.Errorf("core: polluting fraction %v out of (0,1]", p.PollutingFraction)
	}
	if p.DependsLargeFraction <= 0 || p.DependsLargeFraction > 1 {
		return fmt.Errorf("core: depends fraction %v out of (0,1]", p.DependsLargeFraction)
	}
	if p.SensitiveLo < 0 || p.SensitiveHi < p.SensitiveLo {
		return fmt.Errorf("core: sensitive band [%v,%v] invalid", p.SensitiveLo, p.SensitiveHi)
	}
	return nil
}

// DependsSensitive applies the bit-vector-size heuristic: the join is
// cache-sensitive exactly when its vector is comparable to the LLC.
func (p Policy) DependsSensitive(fp Footprint) bool {
	b := float64(fp.BitVectorBytes)
	llc := float64(p.LLCBytes)
	return b >= llc*p.SensitiveLo && b <= llc*p.SensitiveHi
}

// MaskFor maps a job's identifier (and footprint hint) to the CAT
// capacity mask the engine programs for its worker, per Section V-B.
func (p Policy) MaskFor(cuid CUID, fp Footprint) cat.WayMask {
	full := cat.FullMask(p.LLCWays)
	if !p.Enabled {
		return full
	}
	switch cuid {
	case Polluting:
		return cat.PortionMask(p.LLCWays, p.PollutingFraction)
	case Depends:
		if p.DependsSensitive(fp) {
			return cat.PortionMask(p.LLCWays, p.DependsLargeFraction)
		}
		return cat.PortionMask(p.LLCWays, p.PollutingFraction)
	default:
		return full
	}
}
