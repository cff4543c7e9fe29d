package cachesim

import (
	"testing"

	"cachepart/internal/cat"
	"cachepart/internal/memory"
)

// testConfig is a small machine so tests run fast: 4 cores, 1 KiB/2-way
// L1, 4 KiB/4-way L2, 64 KiB/16-way LLC.
func testConfig() Config {
	return Config{
		Cores:         4,
		FreqHz:        2e9,
		L1:            Geometry{Size: 1 << 10, Ways: 2},
		L2:            Geometry{Size: 4 << 10, Ways: 4},
		LLC:           Geometry{Size: 64 << 10, Ways: 16},
		L1Latency:     4,
		L2Latency:     12,
		LLCLatency:    40,
		DRAMLatency:   160,
		DRAMBandwidth: 32e9,
		PrefetchDepth: 0, // most tests want raw cache behaviour
		InclusiveLLC:  true,
		NumCLOS:       4,
	}
}

func newTestMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultConfigValid(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().LLC.Sets(); got != 45056 {
		t.Errorf("LLC sets = %d, want 45056 (55 MiB / 20 ways / 64 B)", got)
	}
	if m.Cores() != 22 {
		t.Errorf("cores = %d, want 22", m.Cores())
	}
}

func TestConfigValidation(t *testing.T) {
	bads := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 64 },
		func(c *Config) { c.FreqHz = 0 },
		func(c *Config) { c.L1.Ways = 0 },
		func(c *Config) { c.LLC.Size = 17 },
		func(c *Config) { c.LLC.Ways = 33 },
		func(c *Config) { c.L2 = Geometry{Size: 64 * 64 * memory.LineSize, Ways: 64} }, // wider than a way mask
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.NumCLOS = 0 },
		func(c *Config) { c.DRAMLatency = -1 },
	}
	for i, mutate := range bads {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestScaledConfigPreservesShape(t *testing.T) {
	c := DefaultConfig()
	s := c.Scaled(16)
	if s.LLC.Ways != c.LLC.Ways {
		t.Error("scaling must preserve associativity")
	}
	if s.LLC.Size >= c.LLC.Size || s.LLC.Size == 0 {
		t.Error("LLC not scaled down")
	}
	if s.LLC.Size%uint64(s.LLC.Ways*memory.LineSize) != 0 {
		t.Error("scaled LLC size not way aligned")
	}
	if _, err := New(s); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
	if got := c.Scaled(1); got.LLC.Size != c.LLC.Size {
		t.Error("Scaled(1) must be identity")
	}
}

func TestAccessLevelProgression(t *testing.T) {
	m := newTestMachine(t, testConfig())
	a := memory.Addr(memory.PageSize)
	if lvl := m.Access(0, a, false); lvl != DRAM {
		t.Errorf("cold access = %v, want DRAM", lvl)
	}
	if lvl := m.Access(0, a, false); lvl != L1 {
		t.Errorf("second access = %v, want L1", lvl)
	}
	// Another core misses its private caches but hits shared LLC.
	if lvl := m.Access(1, a, false); lvl != LLC {
		t.Errorf("other-core access = %v, want LLC", lvl)
	}
	if lvl := m.Access(1, a, false); lvl != L1 {
		t.Errorf("other-core repeat = %v, want L1", lvl)
	}
}

func TestClockAdvancesWithLatency(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	a := memory.Addr(memory.PageSize)
	m.Access(0, a, false)
	dramTicks := m.Now(0)
	if min := (cfg.DRAMLatency + cfg.LLCLatency) * TicksPerCycle; dramTicks < min {
		t.Errorf("DRAM access took %d ticks, want >= %d", dramTicks, min)
	}
	before := m.Now(0)
	m.Access(0, a, false)
	if got := m.Now(0) - before; got != cfg.L1Latency*TicksPerCycle {
		t.Errorf("L1 hit took %d ticks, want %d", got, cfg.L1Latency*TicksPerCycle)
	}
}

func TestComputeAdvancesClockAndInstructions(t *testing.T) {
	m := newTestMachine(t, testConfig())
	m.Compute(2, 100, 250)
	if got := m.Now(2); got != 100*TicksPerCycle {
		t.Errorf("Now = %d, want %d", got, 100*TicksPerCycle)
	}
	if got := m.Stats(2).Instructions; got != 250 {
		t.Errorf("Instructions = %d, want 250", got)
	}
}

func TestAdvanceToNeverMovesBackwards(t *testing.T) {
	m := newTestMachine(t, testConfig())
	m.AdvanceTo(0, 500)
	m.AdvanceTo(0, 100)
	if got := m.Now(0); got != 500 {
		t.Errorf("Now = %d, want 500", got)
	}
}

func TestSecondsTicksRoundTrip(t *testing.T) {
	m := newTestMachine(t, testConfig())
	ticks := m.Ticks(0.25)
	if got := m.Seconds(ticks); got < 0.2499 || got > 0.2501 {
		t.Errorf("round trip 0.25 s -> %v", got)
	}
}

// TestWorkingSetFitsLLC verifies steady-state behaviour: a working set
// smaller than the LLC stops missing after one pass; one larger keeps
// missing.
func TestWorkingSetFitsLLC(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()

	small := space.Alloc("small", cfg.LLC.Size/4)
	touchAll := func(r memory.Region, rounds int) (misses uint64) {
		before := m.Stats(0).LLCMisses
		for round := 0; round < rounds; round++ {
			for off := uint64(0); off < r.Size; off += memory.LineSize {
				m.Access(0, r.Addr(off), false)
			}
		}
		return m.Stats(0).LLCMisses - before
	}
	touchAll(small, 1) // warm
	if misses := touchAll(small, 2); misses != 0 {
		t.Errorf("LLC-resident working set missed %d times", misses)
	}

	big := space.Alloc("big", cfg.LLC.Size*4)
	touchAll(big, 1)
	if misses := touchAll(big, 1); misses == 0 {
		t.Error("oversized working set should keep missing")
	}
}

// TestCATRestrictsVictimWays verifies the central CAT semantics: a core
// whose mask grants k of n ways can keep at most k/n of the LLC, while
// an unrestricted core can fill all of it.
func TestCATRestrictsVictimWays(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()
	// Streams twice the LLC so every set sees enough fills.
	data := space.Alloc("stream", cfg.LLC.Size*2)

	stream := func(core int) {
		for off := uint64(0); off < data.Size; off += memory.LineSize {
			m.Access(core, data.Addr(off), false)
		}
	}

	stream(0)
	full := m.LLCOccupancy(data.Base, data.Base+memory.Addr(data.Size))
	wantFull := int(cfg.LLC.Size / memory.LineSize)
	if full != wantFull {
		t.Fatalf("unrestricted stream occupies %d lines, want %d", full, wantFull)
	}

	// Restrict core 1 to 2 of 16 ways and flush.
	m.Flush()
	if err := m.CAT().SetMask(1, cat.PortionMask(cfg.LLC.Ways, 0.125)); err != nil {
		t.Fatal(err)
	}
	if err := m.CAT().Associate(1, 1); err != nil {
		t.Fatal(err)
	}
	stream(1)
	limited := m.LLCOccupancy(data.Base, data.Base+memory.Addr(data.Size))
	wantMax := wantFull * 2 / cfg.LLC.Ways
	if limited > wantMax {
		t.Errorf("masked stream occupies %d lines, want <= %d", limited, wantMax)
	}
	if limited < wantMax/2 {
		t.Errorf("masked stream occupies %d lines, suspiciously few (<= %d expected)", limited, wantMax)
	}
}

// TestCATHitsOutsideMask verifies that restricting fills does not
// restrict hits: a masked core still hits lines another core cached
// anywhere in the LLC.
func TestCATHitsOutsideMask(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()
	shared := space.Alloc("shared", 4*memory.LineSize)

	// Core 0 (full mask) caches the lines.
	for off := uint64(0); off < shared.Size; off += memory.LineSize {
		m.Access(0, shared.Addr(off), false)
	}
	// Core 1 restricted to way 0..1 must still hit them in LLC.
	if err := m.CAT().SetMask(1, 0x3); err != nil {
		t.Fatal(err)
	}
	if err := m.CAT().Associate(1, 1); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < shared.Size; off += memory.LineSize {
		if lvl := m.Access(1, shared.Addr(off), false); lvl != LLC {
			t.Errorf("masked core access = %v, want LLC hit", lvl)
		}
	}
}

// TestPollutionAndPartitioning reproduces the paper's core mechanism in
// miniature: a victim with an LLC-resident working set suffers when a
// streaming polluter shares the cache, and partitioning the polluter
// into a small slice restores the victim's hit rate.
func TestPollutionAndPartitioning(t *testing.T) {
	run := func(mask cat.WayMask) (victimMisses uint64) {
		cfg := testConfig()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		space := memory.NewSpace()
		hot := space.Alloc("hot", cfg.LLC.Size/2)
		streamData := space.Alloc("stream", cfg.LLC.Size*8)

		if mask != 0 {
			if err := m.CAT().SetMask(1, mask); err != nil {
				t.Fatal(err)
			}
			if err := m.CAT().Associate(1, 1); err != nil {
				t.Fatal(err)
			}
		}

		// Warm the victim's working set.
		for off := uint64(0); off < hot.Size; off += memory.LineSize {
			m.Access(0, hot.Addr(off), false)
		}
		// Interleave: victim loops over its set while polluter streams.
		var streamOff uint64
		before := m.Stats(0).LLCMisses
		for round := 0; round < 4; round++ {
			for off := uint64(0); off < hot.Size; off += memory.LineSize {
				m.Access(0, hot.Addr(off), false)
				// Polluter streams four lines per victim line.
				for k := 0; k < 4; k++ {
					m.Access(1, streamData.Addr(streamOff), false)
					streamOff = (streamOff + memory.LineSize) % streamData.Size
				}
			}
		}
		return m.Stats(0).LLCMisses - before
	}

	unpartitioned := run(0)
	partitioned := run(0x3)
	if unpartitioned == 0 {
		t.Fatal("expected pollution-induced misses without partitioning")
	}
	if partitioned*5 > unpartitioned {
		t.Errorf("partitioning should eliminate most pollution: %d -> %d misses",
			unpartitioned, partitioned)
	}
}

// TestInclusiveBackInvalidation verifies that evicting an LLC line
// removes it from private caches: after the victim's line is pushed out
// of the LLC by another core, the victim misses all the way to DRAM
// even though its L1/L2 would still have held the line.
func TestInclusiveBackInvalidation(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()

	line := space.Alloc("one", memory.LineSize)
	m.Access(0, line.Base, false)
	if lvl := m.Access(0, line.Base, false); lvl != L1 {
		t.Fatalf("expected L1 hit, got %v", lvl)
	}

	// Core 1 streams far more than the whole LLC, evicting core 0's line.
	wash := space.Alloc("wash", cfg.LLC.Size*4)
	for off := uint64(0); off < wash.Size; off += memory.LineSize {
		m.Access(1, wash.Addr(off), false)
	}

	if lvl := m.Access(0, line.Base, false); lvl != DRAM {
		t.Errorf("after LLC eviction access = %v, want DRAM (inclusive back-invalidate)", lvl)
	}
}

// TestNonInclusiveKeepsPrivateCopies is the ablation contrast to the
// test above.
func TestNonInclusiveKeepsPrivateCopies(t *testing.T) {
	cfg := testConfig()
	cfg.InclusiveLLC = false
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()

	line := space.Alloc("one", memory.LineSize)
	m.Access(0, line.Base, false)
	wash := space.Alloc("wash", cfg.LLC.Size*4)
	for off := uint64(0); off < wash.Size; off += memory.LineSize {
		m.Access(1, wash.Addr(off), false)
	}
	if lvl := m.Access(0, line.Base, false); lvl != L1 {
		t.Errorf("non-inclusive access = %v, want L1", lvl)
	}
}

// TestPrefetcherHidesStreamLatency verifies that a sequential stream
// mostly avoids DRAM-latency stalls once the stride detector arms,
// while random accesses see no benefit.
func TestPrefetcherHidesStreamLatency(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDepth = 16
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()
	data := space.Alloc("stream", 1<<20)

	var demandDRAM int
	for off := uint64(0); off < data.Size; off += memory.LineSize {
		if lvl := m.Access(0, data.Addr(off), false); lvl == DRAM {
			demandDRAM++
		}
	}
	lines := int(data.Size / memory.LineSize)
	if demandDRAM > lines/10 {
		t.Errorf("prefetched stream still had %d/%d demand DRAM accesses", demandDRAM, lines)
	}
	if got := m.Stats(0).PrefetchIssued; got == 0 {
		t.Error("no prefetches issued")
	}
}

// TestPrefetchConsumesBandwidth verifies prefetches are not free: the
// DRAM server time advances for each prefetched line, so a stream is
// bandwidth-bound, not latency-bound.
func TestPrefetchConsumesBandwidth(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDepth = 16
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()
	data := space.Alloc("stream", 4<<20)

	for off := uint64(0); off < data.Size; off += memory.LineSize {
		m.Access(0, data.Addr(off), false)
	}
	elapsed := m.Seconds(m.Now(0))
	gbs := float64(data.Size) / elapsed / 1e9
	// Must not exceed the configured 32 GB/s (allowing rounding), and a
	// healthy stream should reach at least a third of it.
	// A single core is latency-limited to roughly line size / L2 hit
	// latency (~10.6 GB/s here), like a real single-threaded stream.
	if gbs > 33 {
		t.Errorf("stream bandwidth %.1f GB/s exceeds DRAM limit", gbs)
	}
	if gbs < 7 {
		t.Errorf("stream bandwidth %.1f GB/s suspiciously low", gbs)
	}
}

// TestBandwidthContention verifies the shared line server: two
// concurrent streams each get roughly half the bandwidth of one.
func TestBandwidthContention(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDepth = 16
	// Shrink the DRAM budget below twice the single-stream demand so
	// two streams must contend.
	cfg.DRAMBandwidth = 8e9
	run := func(streams int) float64 {
		m := newTestMachine(t, cfg)
		space := memory.NewSpace()
		regions := make([]memory.Region, streams)
		for i := range regions {
			regions[i] = space.Alloc("s", 2<<20)
		}
		offs := make([]uint64, streams)
		done := 0
		for done < streams {
			done = 0
			// Advance the stream whose core clock is lowest, mimicking
			// the engine's time-ordered interleave.
			minCore, minT := -1, int64(0)
			for c := 0; c < streams; c++ {
				if offs[c] >= regions[c].Size {
					done++
					continue
				}
				if minCore < 0 || m.Now(c) < minT {
					minCore, minT = c, m.Now(c)
				}
			}
			if minCore < 0 {
				break
			}
			m.Access(minCore, regions[minCore].Addr(offs[minCore]), false)
			offs[minCore] += memory.LineSize
		}
		// Per-stream bandwidth.
		var worst float64
		for c := 0; c < streams; c++ {
			bw := float64(regions[c].Size) / m.Seconds(m.Now(c))
			if worst == 0 || bw < worst {
				worst = bw
			}
		}
		return worst
	}
	solo := run(1)
	duo := run(2)
	if duo > 0.75*solo {
		t.Errorf("two streams: per-stream bandwidth %.1f GB/s vs solo %.1f GB/s — no contention modelled",
			duo/1e9, solo/1e9)
	}
	if duo < 0.25*solo {
		t.Errorf("two streams starved: %.1f GB/s vs solo %.1f GB/s", duo/1e9, solo/1e9)
	}
}

func TestDirtyWritebackCounted(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	space := memory.NewSpace()
	data := space.Alloc("w", cfg.LLC.Size*2)
	// Write everything once (allocate + dirty), then stream reads over
	// fresh lines to force dirty evictions.
	for off := uint64(0); off < data.Size; off += memory.LineSize {
		m.Access(0, data.Addr(off), true)
	}
	if got := m.TotalStats().Writebacks; got == 0 {
		t.Error("dirty evictions produced no writebacks")
	}
}

func TestStatsDeltaAndRatios(t *testing.T) {
	m := newTestMachine(t, testConfig())
	a := memory.Addr(memory.PageSize)
	m.Access(0, a, false) // DRAM
	snap := m.Stats(0)
	m.Access(0, a, false) // L1
	m.Access(1, a, false) // LLC hit
	d := m.Stats(0).Sub(snap)
	if d.L1Hits != 1 || d.LLCMisses != 0 {
		t.Errorf("delta = %+v", d)
	}
	tot := m.TotalStats()
	if tot.LLCAccesses() != 2 { // 1 miss (core 0) + 1 hit (core 1)
		t.Errorf("LLC accesses = %d, want 2", tot.LLCAccesses())
	}
	if r := tot.LLCHitRatio(); r != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", r)
	}
	if mpi := tot.LLCMissesPerInstruction(); mpi <= 0 {
		t.Errorf("MPI = %v, want > 0", mpi)
	}
	var zero CoreStats
	if zero.LLCHitRatio() != 0 || zero.LLCMissesPerInstruction() != 0 {
		t.Error("zero stats should yield zero ratios")
	}
}

func TestFlushAndReset(t *testing.T) {
	m := newTestMachine(t, testConfig())
	a := memory.Addr(memory.PageSize)
	m.Access(0, a, false)
	m.Flush()
	if lvl := m.Access(0, a, false); lvl != DRAM {
		t.Errorf("after flush access = %v, want DRAM", lvl)
	}
	m.Reset()
	if m.Now(0) != 0 || m.Stats(0).Reads != 0 {
		t.Error("Reset did not clear clocks/stats")
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{L1: "L1", L2: "L2", LLC: "LLC", DRAM: "DRAM"} {
		if got := lvl.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", lvl, got, want)
		}
	}
	if got := Level(9).String(); got != "Level(9)" {
		t.Errorf("unknown level = %q", got)
	}
}

func TestMaxNow(t *testing.T) {
	m := newTestMachine(t, testConfig())
	m.AdvanceTo(2, 777)
	if got := m.MaxNow(); got != 777 {
		t.Errorf("MaxNow = %d, want 777", got)
	}
}
