package cachesim

import (
	"fmt"

	"cachepart/internal/cat"
	"cachepart/internal/memory"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

// Hierarchy levels, nearest first.
const (
	L1 Level = iota
	L2
	LLC
	DRAM
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// CoreStats are the performance counters of one core, in the spirit of
// the Intel Processor Counter Monitor the paper samples.
type CoreStats struct {
	Instructions   uint64
	Reads          uint64
	Writes         uint64
	L1Hits         uint64
	L2Hits         uint64
	LLCHits        uint64
	LLCMisses      uint64
	PrefetchIssued uint64
	PrefetchLate   uint64 // demand arrived before the prefetch completed
	Writebacks     uint64 // dirty LLC evictions sent to DRAM
	StallTicks     int64  // ticks spent waiting on memory
	ComputeTicks   int64
}

// Add accumulates other into s.
func (s *CoreStats) Add(o CoreStats) {
	s.Instructions += o.Instructions
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.LLCHits += o.LLCHits
	s.LLCMisses += o.LLCMisses
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchLate += o.PrefetchLate
	s.Writebacks += o.Writebacks
	s.StallTicks += o.StallTicks
	s.ComputeTicks += o.ComputeTicks
}

// Sub returns s minus o, for measuring deltas over a window.
func (s CoreStats) Sub(o CoreStats) CoreStats {
	return CoreStats{
		Instructions:   s.Instructions - o.Instructions,
		Reads:          s.Reads - o.Reads,
		Writes:         s.Writes - o.Writes,
		L1Hits:         s.L1Hits - o.L1Hits,
		L2Hits:         s.L2Hits - o.L2Hits,
		LLCHits:        s.LLCHits - o.LLCHits,
		LLCMisses:      s.LLCMisses - o.LLCMisses,
		PrefetchIssued: s.PrefetchIssued - o.PrefetchIssued,
		PrefetchLate:   s.PrefetchLate - o.PrefetchLate,
		Writebacks:     s.Writebacks - o.Writebacks,
		StallTicks:     s.StallTicks - o.StallTicks,
		ComputeTicks:   s.ComputeTicks - o.ComputeTicks,
	}
}

// LLCAccesses reports the number of accesses that reached the LLC.
func (s CoreStats) LLCAccesses() uint64 { return s.LLCHits + s.LLCMisses }

// LLCHitRatio reports hits/(hits+misses) at the LLC, the metric the
// paper reports; it returns 0 when the LLC was never reached.
func (s CoreStats) LLCHitRatio() float64 {
	t := s.LLCAccesses()
	if t == 0 {
		return 0
	}
	return float64(s.LLCHits) / float64(t)
}

// DRAMBytes reports the memory traffic: every line that crossed the
// DRAM bus, as a demand miss, a prefetch fill or a dirty writeback.
func (s CoreStats) DRAMBytes() uint64 {
	return (s.LLCMisses + s.PrefetchIssued + s.Writebacks) * memory.LineSize
}

// LLCMissesPerInstruction reports the paper's second metric.
func (s CoreStats) LLCMissesPerInstruction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.LLCMisses) / float64(s.Instructions)
}

// prefetcher is a per-core ascending stream detector: two consecutive
// +1-line strides arm it, after which it keeps PrefetchDepth lines of
// headroom in front of the demand stream.
type prefetcher struct {
	lastLine uint64
	streak   int
	frontier uint64 // highest line already prefetched + 1
}

// Machine simulates the memory hierarchy for a fixed set of cores.
// It is not safe for concurrent use; the engine serialises access in
// virtual-time order.
type Machine struct {
	cfg  Config
	regs *cat.Registers

	l1  []cache // per core
	l2  []cache // per core
	llc cache
	pf  []prefetcher

	now      []int64 // per-core clock, ticks
	dramFree int64   // next tick the DRAM line server is free

	l1Lat, l2Lat, llcLat, dramLat int64 // ticks
	dramStall                     int64 // minimum ticks a core stalls per demand miss (latency / MLP)
	dramService                   int64 // ticks per line transfer
	pfDropQueue                   int64 // queue backlog (ticks) beyond which prefetches drop
	mlp                           int64 // memory-level parallelism factor

	stats []CoreStats

	// Cache Monitoring Technology state: per-CLOS LLC occupancy in
	// lines and cumulative DRAM traffic in lines (fills + writebacks),
	// attributed to the class of service of the core that caused them.
	llcOccupancy []int64
	memTraffic   []uint64
}

// New builds a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	regs, err := cat.NewRegisters(cfg.Cores, cfg.LLC.Ways, cfg.NumCLOS)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     cfg,
		regs:    regs,
		llc:     newCache(cfg.LLC),
		l1:      make([]cache, cfg.Cores),
		l2:      make([]cache, cfg.Cores),
		pf:      make([]prefetcher, cfg.Cores),
		now:     make([]int64, cfg.Cores),
		stats:   make([]CoreStats, cfg.Cores),
		l1Lat:   cfg.L1Latency * TicksPerCycle,
		l2Lat:   cfg.L2Latency * TicksPerCycle,
		llcLat:  cfg.LLCLatency * TicksPerCycle,
		dramLat: cfg.DRAMLatency * TicksPerCycle,
	}
	for i := range m.l1 {
		m.l1[i] = newCache(cfg.L1)
		m.l2[i] = newCache(cfg.L2)
	}
	m.llcOccupancy = make([]int64, cfg.NumCLOS)
	m.memTraffic = make([]uint64, cfg.NumCLOS)
	// Ticks per line transfer: line bytes / (bytes per tick).
	bytesPerTick := cfg.DRAMBandwidth / cfg.FreqHz / TicksPerCycle
	m.dramService = int64(float64(memory.LineSize)/bytesPerTick + 0.5)
	if m.dramService < 1 {
		m.dramService = 1
	}
	mlp := int64(cfg.MissParallelism)
	if mlp < 1 {
		mlp = 1
	}
	m.mlp = mlp
	m.dramStall = m.dramLat / mlp
	if m.dramStall < m.dramService {
		m.dramStall = m.dramService
	}
	// Prefetch flow control: when the DRAM queue is backed up by more
	// than Cores × PrefetchDepth line transfers (at least 32), roughly
	// the machine's fill-buffer capacity, a prefetch is dropped instead
	// of issued, as real prefetchers are under memory pressure. Demand
	// misses are never dropped; they self-regulate because the core
	// waits.
	m.pfDropQueue = max(int64(cfg.Cores)*int64(cfg.PrefetchDepth), 32) * m.dramService
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// CAT exposes the CAT register file so the resctrl layer can program
// masks and core associations.
func (m *Machine) CAT() *cat.Registers { return m.regs }

// Cores reports the simulated core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// Now reports a core's clock in ticks.
func (m *Machine) Now(core int) int64 { return m.now[core] }

// MaxNow reports the most advanced core clock.
func (m *Machine) MaxNow() int64 {
	var max int64
	for _, t := range m.now {
		if t > max {
			max = t
		}
	}
	return max
}

// AdvanceTo moves a core's clock forward to at least t, modelling idle
// time between jobs. Moving backwards is ignored.
func (m *Machine) AdvanceTo(core int, t int64) {
	if t > m.now[core] {
		m.now[core] = t
	}
}

// Seconds converts ticks to simulated seconds.
func (m *Machine) Seconds(ticks int64) float64 {
	return float64(ticks) / TicksPerCycle / m.cfg.FreqHz
}

// Ticks converts simulated seconds to ticks.
func (m *Machine) Ticks(seconds float64) int64 {
	return int64(seconds * m.cfg.FreqHz * TicksPerCycle)
}

// Stats returns a copy of one core's counters.
func (m *Machine) Stats(core int) CoreStats { return m.stats[core] }

// TotalStats aggregates the counters of all cores.
func (m *Machine) TotalStats() CoreStats {
	var t CoreStats
	for i := range m.stats {
		t.Add(m.stats[i])
	}
	return t
}

// Flush invalidates every cache, e.g. between independent experiments.
// Clocks and counters are preserved; CMT occupancy drops to zero with
// the lines.
func (m *Machine) Flush() {
	m.llc.flush()
	for i := range m.l1 {
		m.l1[i].flush()
		m.l2[i].flush()
		m.pf[i] = prefetcher{}
	}
	clear(m.llcOccupancy)
}

// Reset flushes the caches and zeroes clocks, counters and the DRAM
// queue, returning the machine to its initial state.
func (m *Machine) Reset() {
	m.Flush()
	m.ZeroClocksAndStats()
}

// ZeroClocksAndStats rewinds every core clock, the DRAM queue and all
// counters while keeping cache contents — used after prewarming a
// working set so measurement starts at time zero in steady state.
func (m *Machine) ZeroClocksAndStats() {
	for i := range m.now {
		m.now[i] = 0
		m.stats[i] = CoreStats{}
	}
	m.dramFree = 0
	clear(m.memTraffic)
	// Any in-flight prefetch readiness stamps would lie in the future
	// of the rewound clocks; clamp them to "arrived".
	m.llc.clearReady()
	for c := range m.l1 {
		m.l1[c].clearReady()
		m.l2[c].clearReady()
		m.pf[c] = prefetcher{}
	}
}

// Compute advances a core's clock by a pure-computation cost and
// retires instructions, without touching memory.
func (m *Machine) Compute(core int, cycles int64, instrs uint64) {
	t := cycles * TicksPerCycle
	m.now[core] += t
	m.stats[core].ComputeTicks += t
	m.stats[core].Instructions += instrs
}

// Access simulates one memory reference by the core and advances its
// clock by the access cost. It returns the level that satisfied the
// access. Each access retires one instruction.
func (m *Machine) Access(core int, addr memory.Addr, write bool) Level {
	line := addr.Line()
	st := &m.stats[core]
	st.Instructions++
	if write {
		st.Writes++
	} else {
		st.Reads++
	}

	start := m.now[core]

	// L1.
	if e := m.l1[core].lookup(line); e != nil {
		if write {
			e.setDirty()
		}
		st.L1Hits++
		m.finish(core, start, m.l1Lat, 0)
		m.observeStream(core, line)
		return L1
	}

	// L2.
	if e := m.l2[core].lookup(line); e != nil {
		lat := m.l2Lat
		if ready := e.ready(); ready > start {
			// A prefetch for this line is still in flight.
			lat = ready - start + m.l2Lat
			st.PrefetchLate++
		}
		m.fillL1(core, line, write)
		st.L2Hits++
		m.finish(core, start, lat, m.l2Lat)
		m.observeStream(core, line)
		return L2
	}

	// LLC.
	if e := m.llc.lookup(line); e != nil {
		lat := m.llcLat
		if ready := e.ready(); ready > start {
			lat = ready - start + m.llcLat
			st.PrefetchLate++
		}
		e.addOwner(core)
		m.fillL2(core, line)
		m.fillL1(core, line, write)
		st.LLCHits++
		m.finish(core, start, lat, m.llcLat)
		m.observeStream(core, line)
		return LLC
	}

	// DRAM. The line server serialises transfers, which is the shared
	// bandwidth model: under contention `begin` is pushed past `start`.
	// The line arrives after the full latency, but the core only
	// stalls for the overlapped share (memory-level parallelism) of
	// the whole penalty — queueing delay included, since an
	// out-of-order core keeps several misses in flight through the
	// memory controller's queue as well.
	begin := max64(start, m.dramFree)
	m.dramFree = begin + m.dramService
	ready := begin + m.dramLat
	st.LLCMisses++

	stall := (begin - start + m.dramLat) / m.mlp
	if stall < m.dramStall {
		stall = m.dramStall
	}
	m.fillLLC(core, line, ready)
	m.fillL2(core, line)
	m.fillL1(core, line, write)
	m.finish(core, start, stall+m.llcLat, m.llcLat)
	m.observeStream(core, line)
	return DRAM
}

// BatchOp is one element of a batched access run: a memory reference
// optionally followed by a compute step. Batching preserves the exact
// Access/Compute call sequence, so results are bit-identical to the
// unbatched loop. No kernel batches; the benchmark's access probe does.
type BatchOp struct {
	Addr   memory.Addr
	Write  bool
	Cycles int64  // compute cycles charged after the access (0 = none)
	Instrs uint64 // instructions retired by the compute step
}

// AccessBatch simulates a run of accesses on one core. It is exactly
// equivalent to calling Access (and Compute, for elements with a cost)
// once per element.
func (m *Machine) AccessBatch(core int, ops []BatchOp) {
	for i := range ops {
		op := &ops[i]
		m.Access(core, op.Addr, op.Write)
		if op.Cycles != 0 || op.Instrs != 0 {
			m.Compute(core, op.Cycles, op.Instrs)
		}
	}
}

// finish advances the core clock by cost ticks, attributing everything
// beyond baseline to memory stall.
func (m *Machine) finish(core int, start, cost, baseline int64) {
	m.now[core] = start + cost
	if stall := cost - baseline; stall > 0 {
		m.stats[core].StallTicks += stall
	}
}

func (m *Machine) fillL1(core int, line uint64, write bool) {
	victim, slot := m.l1[core].fill(line, m.now[core])
	if write {
		slot.setDirty()
	}
	if victim.valid() && victim.dirty() {
		// Dirty L1 victim falls back to L2 (or LLC if L2 lost it).
		if e := m.l2[core].peek(victim.line()); e != nil {
			e.setDirty()
		} else if e := m.llc.peek(victim.line()); e != nil {
			e.setDirty()
		}
	}
}

func (m *Machine) fillL2(core int, line uint64) {
	victim, _ := m.l2[core].fill(line, m.now[core])
	if victim.valid() && victim.dirty() {
		if e := m.llc.peek(victim.line()); e != nil {
			e.setDirty()
		}
	}
}

// fillLLC inserts a line into the LLC respecting the core's CAT mask
// and, for an inclusive LLC, back-invalidates the victim from the
// private caches of every core that holds it. CMT occupancy and
// bandwidth counters are attributed to the filling core's CLOS.
func (m *Machine) fillLLC(core int, line uint64, ready int64) {
	victim, slot := m.llc.fillMasked(line, ready, m.regs.MaskOf(core))
	m.filledLLC(core, victim, slot)
}

// filledLLC accounts for an LLC fill by core into slot and disposes of
// the line it replaced. It reports whether the back-invalidation took
// a line out of the filling core's own L2.
func (m *Machine) filledLLC(core int, victim entry, slot *entry) (ownL2 bool) {
	clos := m.regs.CLOSOf(core)
	slot.setOwners(1 << uint(core))
	slot.setCLOS(uint8(clos))
	m.llcOccupancy[clos]++
	m.memTraffic[clos]++
	if !victim.valid() {
		return false
	}
	m.llcOccupancy[victim.clos()]--
	dirty := victim.dirty()
	if owners := victim.owners(); m.cfg.InclusiveLLC && owners != 0 {
		vline := victim.line()
		for c := 0; owners != 0; c++ {
			bit := uint32(1) << uint(c)
			if owners&bit == 0 {
				continue
			}
			owners &^= bit
			if _, d := m.l1[c].invalidate(vline); d {
				dirty = true
			}
			present, d := m.l2[c].invalidate(vline)
			if d {
				dirty = true
			}
			if present && c == core {
				ownL2 = true
			}
		}
	}
	if dirty {
		// Dirty writeback consumes a DRAM transfer slot but does not
		// stall the core.
		m.dramFree = max64(m.dramFree, m.now[core]) + m.dramService
		m.stats[core].Writebacks++
		m.memTraffic[victim.clos()]++
	}
	return ownL2
}

// LLCOccupancyOfCLOS reports the bytes of LLC currently filled by the
// class of service — the llc_occupancy file of a resctrl monitoring
// group (Cache Monitoring Technology).
func (m *Machine) LLCOccupancyOfCLOS(clos int) uint64 {
	if clos < 0 || clos >= len(m.llcOccupancy) {
		return 0
	}
	n := m.llcOccupancy[clos]
	if n < 0 {
		n = 0
	}
	return uint64(n) * memory.LineSize
}

// MemTrafficOfCLOS reports the cumulative DRAM bytes (fills and
// writebacks) attributed to the class of service — the mbm_total file
// of a monitoring group (Memory Bandwidth Monitoring).
func (m *Machine) MemTrafficOfCLOS(clos int) uint64 {
	if clos < 0 || clos >= len(m.memTraffic) {
		return 0
	}
	return m.memTraffic[clos] * memory.LineSize
}

// observeStream feeds the per-core stride detector and issues
// prefetches when a stream is established.
func (m *Machine) observeStream(core int, line uint64) {
	if m.cfg.PrefetchDepth <= 0 {
		return
	}
	p := &m.pf[core]
	switch {
	case line == p.lastLine:
		return // repeated touch within one line
	case line == p.lastLine+1:
		p.streak++
	default:
		p.streak = 0
		p.frontier = 0
	}
	p.lastLine = line
	if p.streak < 2 {
		return
	}
	target := line + uint64(m.cfg.PrefetchDepth)
	from := line + 1
	if p.frontier > from {
		from = p.frontier
	}
	for l := from; l <= target; l++ {
		m.prefetch(core, l)
	}
	p.frontier = target + 1
}

// prefetch asynchronously pulls a line into LLC and L2. It consumes
// DRAM bandwidth but never stalls the core; a demand access that beats
// the fill pays the residual latency. Under queue pressure the
// prefetch is dropped, as in real memory controllers — without this
// back-pressure the open-loop prefetch stream would let the virtual
// queue grow without bound when demand exceeds bandwidth.
func (m *Machine) prefetch(core int, line uint64) {
	if m.dramFree-m.now[core] > m.pfDropQueue {
		return
	}
	// One search per level settles both presence and the fill's victim.
	llcSet, present, llcWay := m.llc.probe(line, m.regs.MaskOf(core))
	if present {
		return
	}
	l2 := &m.l2[core]
	l2Set, present, l2Way := l2.probe(line, allWays)
	if present {
		return
	}
	begin := max64(m.now[core], m.dramFree)
	m.dramFree = begin + m.dramService
	ready := begin + m.dramLat
	victim, slot := m.llc.place(llcSet, llcWay, line, ready)
	if m.filledLLC(core, victim, slot) {
		// The back-invalidation emptied a way of this core's L2, maybe
		// in the probed set: the L2 victim has to be chosen again.
		l2Way = l2.victimWay(l2Set, allWays)
	}
	victim, _ = l2.place(l2Set, l2Way, line, ready)
	if victim.valid() && victim.dirty() {
		if e := m.llc.peek(victim.line()); e != nil {
			e.setDirty()
		}
	}
	m.stats[core].PrefetchIssued++
}

// LLCOccupancy counts the valid LLC lines whose addresses fall in
// [lo, hi), a diagnostic used by tests to observe pollution directly.
func (m *Machine) LLCOccupancy(lo, hi memory.Addr) int {
	return m.llc.occupancy(lo.Line(), (hi + memory.LineSize - 1).Line())
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
