// Package exec implements the database operators of the engine as
// resumable kernels: each kernel performs its real computation on the
// columnar data and reports every memory reference and compute cost to
// the cache simulator through a core-bound context.
//
// The three operators the paper analyses are here: the compressed
// column scan (Query 1), hash-based aggregation with grouping
// (Query 2) backed by thread-local hash tables and a merge phase, and
// the bit-vector foreign-key join (Query 3). The OLTP index-lookup +
// projection operator of Section VI-E is in project.go.
package exec

import (
	"cachepart/internal/cachesim"
	"cachepart/internal/memory"
)

// Ctx binds kernel execution to one simulated core.
type Ctx struct {
	M    *cachesim.Machine
	Core int
}

// Read reports a load.
func (c *Ctx) Read(a memory.Addr) { c.M.Access(c.Core, a, false) }

// Write reports a store (write-allocate).
func (c *Ctx) Write(a memory.Addr) { c.M.Access(c.Core, a, true) }

// Compute reports pure computation: cycles of work retiring instrs
// instructions.
func (c *Ctx) Compute(cycles int64, instrs uint64) { c.M.Compute(c.Core, cycles, instrs) }

// Kernel is a resumable unit of operator work bound to one core.
// Step advances by up to budget row-units and reports how many it
// processed and whether the kernel is finished. A kernel must make
// progress (rows > 0) unless it is done.
type Kernel interface {
	Step(ctx *Ctx, budget int) (rows int, done bool)
}

// Drive runs a kernel to completion on one context, for isolated
// operator tests and micro-benchmarks.
func Drive(ctx *Ctx, k Kernel, quantum int) (totalRows int64) {
	if quantum <= 0 {
		quantum = 4096
	}
	for {
		rows, done := k.Step(ctx, quantum)
		totalRows += int64(rows)
		if done {
			return totalRows
		}
	}
}

// Cost model constants: per-row/per-line compute costs and instruction
// counts of the operators. They are calibration parameters of the
// simulation, chosen so that operator balance matches the paper's
// observations (scan bandwidth-bound, aggregation compute+cache-bound).
const (
	// ScanCyclesPerLine is the SIMD predicate-evaluation cost for one
	// 64-byte line of packed codes (~26 codes at 20 bits).
	ScanCyclesPerLine = 4
	// ScanInstrsPerLine approximates retired instructions per line.
	ScanInstrsPerLine = 8

	// AggCyclesPerRow covers hashing, comparison and aggregate update.
	AggCyclesPerRow = 6
	// AggInstrsPerRow approximates retired instructions per row.
	AggInstrsPerRow = 12

	// JoinCyclesPerRow covers bit extraction/insertion and counting.
	JoinCyclesPerRow = 3
	// JoinInstrsPerRow approximates retired instructions per row.
	JoinInstrsPerRow = 6

	// LookupCyclesPerRow covers index probe arithmetic per posting.
	LookupCyclesPerRow = 4
	// LookupInstrsPerRow approximates retired instructions.
	LookupInstrsPerRow = 8
)
