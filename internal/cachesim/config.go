// Package cachesim is an execution-driven simulator of the memory
// hierarchy of a multi-core processor: per-core L1d and L2 caches, a
// shared inclusive last-level cache partitionable with CAT way masks,
// a hardware stride prefetcher, and a DRAM model with fixed access
// latency and a shared line-transfer bandwidth budget.
//
// Query operators execute their real computation on ordinary Go data
// and report each memory reference to the simulator via Access; the
// simulator advances a per-core virtual clock. Throughput in all
// experiments is work divided by simulated time, which makes the
// cache-capacity and bandwidth-contention effects studied in the paper
// observable and deterministic, independent of the Go runtime.
package cachesim

import (
	"fmt"

	"cachepart/internal/memory"
)

// TicksPerCycle is the sub-cycle resolution of the simulated clocks.
// DRAM line service time at 64 GB/s is ~2.2 cycles, so clocks are kept
// in 1/16-cycle ticks to represent it without drift.
const TicksPerCycle = 16

// maxWays is the widest associativity a cat.WayMask can select from.
// It is also the limit of a set's LRU rank bytes (cache.go): valid
// ranks run to ways-1 and must stay below rankPad, the 0x7f that fills
// the bytes past the last way.
const maxWays = 32

// Geometry describes one cache: total size and associativity. The line
// size is fixed at memory.LineSize.
type Geometry struct {
	Size uint64 // bytes
	Ways int
}

// Sets reports the number of sets implied by the geometry.
func (g Geometry) Sets() int {
	if g.Ways <= 0 {
		return 0
	}
	return int(g.Size / uint64(g.Ways) / memory.LineSize)
}

func (g Geometry) validate(name string) error {
	if g.Ways <= 0 {
		return fmt.Errorf("cachesim: %s has %d ways", name, g.Ways)
	}
	if g.Ways > maxWays {
		return fmt.Errorf("cachesim: %s way count %d exceeds way mask width %d", name, g.Ways, maxWays)
	}
	if g.Sets() <= 0 {
		return fmt.Errorf("cachesim: %s size %d too small for %d ways", name, g.Size, g.Ways)
	}
	if g.Size%uint64(g.Ways*memory.LineSize) != 0 {
		return fmt.Errorf("cachesim: %s size %d not divisible into %d ways of %d-byte lines",
			name, g.Size, g.Ways, memory.LineSize)
	}
	return nil
}

// Config describes the simulated machine.
type Config struct {
	Cores  int     // logical cores driving the hierarchy
	FreqHz float64 // core clock for converting cycles to seconds

	L1  Geometry // private, per core
	L2  Geometry // private, per core
	LLC Geometry // shared, way-partitionable

	L1Latency   int64 // cycles
	L2Latency   int64 // cycles
	LLCLatency  int64 // cycles
	DRAMLatency int64 // cycles, fixed access latency

	// DRAMBandwidth is the aggregate line-transfer bandwidth in
	// bytes/second shared by all cores; demand misses, prefetches and
	// dirty writebacks all consume it.
	DRAMBandwidth float64

	// PrefetchDepth is how many lines ahead the per-core stream
	// prefetcher runs once armed. Zero disables prefetching.
	PrefetchDepth int

	// MissParallelism models memory-level parallelism for demand
	// misses: an out-of-order core overlaps several independent
	// misses, so the stall charged per miss is DRAMLatency divided by
	// this factor. The line itself still arrives after the full
	// latency and every transfer still consumes bandwidth. 1 disables
	// overlap.
	MissParallelism int

	// InclusiveLLC selects the paper machine's inclusive LLC: evicting
	// an LLC line back-invalidates it from all private caches.
	InclusiveLLC bool

	// NumCLOS is the number of CAT classes of service.
	NumCLOS int
}

// DefaultConfig returns a machine modelled on the paper's Intel Xeon
// E5-2699 v4: 22 physical cores, 32 KiB/8-way L1d, 256 KiB/8-way L2,
// 55 MiB/20-way inclusive LLC, 80 ns DRAM latency, 64 GB/s read
// bandwidth, and 16 classes of service. The paper sets the concurrency
// limit of a statement to the number of physical cores, so the
// simulated machine exposes the 22 physical cores.
func DefaultConfig() Config {
	return Config{
		Cores:           22,
		FreqHz:          2.2e9,
		L1:              Geometry{Size: 32 << 10, Ways: 8},
		L2:              Geometry{Size: 256 << 10, Ways: 8},
		LLC:             Geometry{Size: 55 << 20, Ways: 20},
		L1Latency:       4,
		L2Latency:       12,
		LLCLatency:      42,
		DRAMLatency:     176, // 80 ns at 2.2 GHz
		DRAMBandwidth:   64e9,
		PrefetchDepth:   16,
		MissParallelism: 4,
		InclusiveLLC:    true,
		NumCLOS:         16,
	}
}

// Scaled returns a copy of the configuration with all cache capacities
// divided by factor. Set-count ratios, way counts and latencies are
// preserved, so normalized-throughput curves keep their shape while
// simulations run proportionally faster. Used by the benchmark harness.
func (c Config) Scaled(factor int) Config {
	if factor <= 1 {
		return c
	}
	s := c
	s.L1.Size = align(c.L1.Size/uint64(factor), uint64(c.L1.Ways)*memory.LineSize)
	s.L2.Size = align(c.L2.Size/uint64(factor), uint64(c.L2.Ways)*memory.LineSize)
	s.LLC.Size = align(c.LLC.Size/uint64(factor), uint64(c.LLC.Ways)*memory.LineSize)
	return s
}

func align(v, to uint64) uint64 {
	if v < to {
		return to
	}
	return v - v%to
}

func (c Config) validate() error {
	if c.Cores <= 0 || c.Cores > 32 {
		return fmt.Errorf("cachesim: core count %d out of range [1,32]", c.Cores)
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("cachesim: frequency %v must be positive", c.FreqHz)
	}
	if err := c.L1.validate("L1"); err != nil {
		return err
	}
	if err := c.L2.validate("L2"); err != nil {
		return err
	}
	if err := c.LLC.validate("LLC"); err != nil {
		return err
	}
	if c.DRAMBandwidth <= 0 {
		return fmt.Errorf("cachesim: DRAM bandwidth %v must be positive", c.DRAMBandwidth)
	}
	if c.NumCLOS <= 0 {
		return fmt.Errorf("cachesim: CLOS count %d must be positive", c.NumCLOS)
	}
	if c.NumCLOS > MaxCLOS {
		return fmt.Errorf("cachesim: CLOS count %d exceeds the %d the packed line tag can attribute", c.NumCLOS, MaxCLOS)
	}
	if c.MissParallelism < 0 {
		return fmt.Errorf("cachesim: negative miss parallelism")
	}
	for _, l := range []int64{c.L1Latency, c.L2Latency, c.LLCLatency, c.DRAMLatency} {
		if l < 0 {
			return fmt.Errorf("cachesim: negative latency")
		}
	}
	return nil
}
