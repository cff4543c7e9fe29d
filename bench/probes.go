package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cachepart"
	"cachepart/internal/cachesim"
	"cachepart/internal/cat"
	"cachepart/internal/column"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
	"cachepart/internal/resctrl"
	"cachepart/internal/serve"
)

// Layer probes: each times one public function of one layer from
// outside, on inputs with a known outcome, and verifies that outcome
// on every batch. They do not depend on the workload; the traced run of
// every workload reports them so a layer's cost can be set beside the
// workload's spans from the same process.

// prober runs probes under a per-probe time budget.
type prober struct {
	budget    time.Duration
	values    map[string]float64
	attempted int
	failures  []string
}

// measure times batch, which performs and verifies n operations per
// call, in three rounds of budget/3 after one warm-up call, and
// records the minimum host ns per operation. A batch that fails its
// verification fails the probe.
func (p *prober) measure(name string, batch func() (n int, err error)) {
	p.attempted++
	fail := func(err error) {
		p.failures = append(p.failures, fmt.Sprintf("probe %s: %v", name, err))
		p.values[name] = 0
	}
	if _, err := batch(); err != nil {
		fail(err)
		return
	}
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		ops := 0
		start := hostNow()
		for hostSince(start) < p.budget/3 {
			n, err := batch()
			if err != nil {
				fail(err)
				return
			}
			ops += n
		}
		best = math.Min(best, float64(hostSince(start).Nanoseconds())/float64(ops))
	}
	p.values[name] = best
}

// setupFailed records a probe whose fixture could not be built.
func (p *prober) setupFailed(name string, err error) {
	p.attempted++
	p.failures = append(p.failures, fmt.Sprintf("probe %s: set-up: %v", name, err))
	p.values[name] = 0
}

// probeCount is the number of measure calls runProbes makes; the
// traced run divides its probe budget by it.
const probeCount = 24

func runProbes(p *prober, seed int64) {
	probeColumn(p, seed)
	probeCachesim(p)
	probeExec(p, seed)
	probeEngine(p)
	probeServe(p, seed)
	probeResctrl(p)
}

// sink keeps probe results live.
var sink int64

func probeSystem(seed int64) (*cachepart.System, error) {
	p := cachepart.FastParams()
	p.Seed = seed
	return cachepart.NewSystem(p)
}

// --- column ---

const probeRows = 1 << 18

func probeColumn(p *prober, seed int64) {
	sys, err := probeSystem(seed)
	if err != nil {
		p.setupFailed("column", err)
		return
	}
	var col15 *column.Column
	for _, bits := range []uint{15, 20, 27} {
		cir := fmt.Sprintf("column.count_in_range_ns_per_row.b%d", bits)
		get := fmt.Sprintf("column.get_ns_per_row.b%d", bits)
		col, err := cachepart.GenerateColumn(sys, fmt.Sprintf("probe.b%d", bits), probeRows, 1, 1<<bits)
		if err == nil && col.Codes.Bits() != bits {
			err = fmt.Errorf("generated %d-bit codes, want %d", col.Codes.Bits(), bits)
		}
		if err != nil {
			p.setupFailed(cir, err)
			p.setupFailed(get, err)
			continue
		}
		if bits == 15 {
			col15 = col
		}
		codes := col.Codes
		lo, hi := uint32(1)<<(bits-2), uint32(3)<<(bits-2)
		var naive int64
		p.measure(get, func() (int, error) {
			naive = 0
			for i := 0; i < probeRows; i++ {
				if c := codes.Get(i); c >= lo && c < hi {
					naive++
				}
			}
			return probeRows, nil
		})
		// One CountInRange call per cache line of codes, as
		// exec.ColumnScan.Step issues them; the count must equal the
		// naive Get loop over the same range.
		p.measure(cir, func() (int, error) {
			var cnt int64
			for cur := 0; cur < probeRows; {
				line := codes.LineOfRow(cur)
				end := int(((line+1)*memory.LineSize*8 + uint64(bits) - 1) / uint64(bits))
				if end > probeRows {
					end = probeRows
				}
				cnt += codes.CountInRange(cur, end, lo, hi)
				cur = end
			}
			if cnt != naive {
				return 0, fmt.Errorf("CountInRange %d, naive Get loop %d", cnt, naive)
			}
			return probeRows, nil
		})
	}
	if col15 == nil {
		p.setupFailed("column.dict_value_ns", fmt.Errorf("no 15-bit column"))
		p.setupFailed("column.index_lookup_ns", fmt.Errorf("no 15-bit column"))
		return
	}
	dict := col15.Dict
	n := uint32(dict.Len())
	p.measure("column.dict_value_ns", func() (int, error) {
		var sum int64
		for i := uint32(0); i < probeRows; i++ {
			sum += dict.Value(i * 2654435761 % n)
		}
		sink += sum
		return probeRows, nil
	})
	ix, err := column.BuildInvertedIndex(sys.Space, col15)
	if err != nil {
		p.setupFailed("column.index_lookup_ns", err)
		return
	}
	p.measure("column.index_lookup_ns", func() (int, error) {
		posts := 0
		for v := int64(1); v <= int64(n); v++ {
			posts += len(ix.Lookup(v))
		}
		if posts != probeRows {
			return 0, fmt.Errorf("index holds %d postings for %d rows", posts, probeRows)
		}
		return int(n), nil
	})
}

// --- cachesim ---

// Simulated geometry at Scale 32: L1 16 lines (2 sets x 8), L2 128
// lines (16 x 8), LLC 28160 lines (1408 x 20). Each pattern cycles
// over `lines` consecutive lines in a fixed permuted order (line =
// i*stride mod lines) whose step is never +1, so the prefetcher stays
// disarmed and LRU makes the outcome exact once warm.
type accessPattern struct {
	metric        string
	lines, stride uint64
	write         bool
	ways          int // >0: confine the core to this many LLC ways
	sequential    bool
	batched       bool
	// share returns the fraction of the delta's accesses that had the
	// pattern's known outcome.
	share func(d cachesim.CoreStats) float64
}

func frac(n, of uint64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func accessesOf(d cachesim.CoreStats) uint64 { return d.Reads + d.Writes }

func share(hits func(cachesim.CoreStats) uint64) func(cachesim.CoreStats) float64 {
	return func(d cachesim.CoreStats) float64 { return frac(hits(d), accessesOf(d)) }
}

var (
	missShare = share(func(d cachesim.CoreStats) uint64 { return d.LLCMisses })
	// An armed stream: every demand access is served by a prefetched
	// line, and one prefetch is issued per access.
	streamShare = func(d cachesim.CoreStats) float64 {
		return math.Min(frac(d.L2Hits+d.LLCHits, accessesOf(d)), frac(d.PrefetchIssued, accessesOf(d)))
	}
)

var accessPatterns = []accessPattern{
	{metric: "cachesim.access_ns.l1_hit", lines: 8, stride: 3,
		share: share(func(d cachesim.CoreStats) uint64 { return d.L1Hits })},
	{metric: "cachesim.access_ns.l2_hit", lines: 64, stride: 37,
		share: share(func(d cachesim.CoreStats) uint64 { return d.L2Hits })},
	{metric: "cachesim.access_ns.llc_hit", lines: 2048, stride: 821,
		share: share(func(d cachesim.CoreStats) uint64 { return d.LLCHits })},
	{metric: "cachesim.access_ns.dram_miss", lines: 1 << 17, stride: 40503, share: missShare},
	{metric: "cachesim.access_ns.dram_miss_2way", lines: 1 << 17, stride: 40503, ways: 2, share: missShare},
	{metric: "cachesim.access_ns.stream", lines: 1 << 17, sequential: true, share: streamShare},
	// Writes over a missing working set: every fill evicts a dirty line.
	{metric: "cachesim.access_ns.write_dirty", lines: 1 << 17, stride: 40503, write: true,
		share: func(d cachesim.CoreStats) float64 { return math.Min(missShare(d), frac(d.Writebacks, accessesOf(d))) }},
	{metric: "cachesim.access_batch_ns.stream", lines: 1 << 17, sequential: true, batched: true, share: streamShare},
}

func probeMachine() (*cachesim.Machine, error) {
	cfg := cachesim.DefaultConfig().Scaled(32)
	cfg.Cores = 8
	return cachesim.New(cfg)
}

func probeCachesim(p *prober) {
	const perBatch = 1 << 14
	for _, pat := range accessPatterns {
		m, err := probeMachine()
		if err == nil && pat.ways > 0 {
			if err = m.CAT().SetMask(1, cat.FullMask(pat.ways)); err == nil {
				err = m.CAT().Associate(0, 1)
			}
		}
		if err != nil {
			p.setupFailed(pat.metric, err)
			continue
		}
		region := memory.NewSpace().Alloc("probe", pat.lines*memory.LineSize)
		next := uint64(0) // position in the cycle
		addr := func() memory.Addr {
			line := next
			if !pat.sequential {
				line = next * pat.stride % pat.lines
			}
			next = (next + 1) % pat.lines
			return region.Addr(line * memory.LineSize)
		}
		// Warm the caches with two full cycles before any batch is
		// verified or timed.
		for i := uint64(0); i < 2*pat.lines; i++ {
			m.Access(0, addr(), pat.write)
		}
		ops := make([]cachesim.BatchOp, 64)
		p.measure(pat.metric, func() (int, error) {
			before := m.Stats(0)
			if pat.batched {
				for done := 0; done < perBatch; done += len(ops) {
					for i := range ops {
						ops[i] = cachesim.BatchOp{Addr: addr(), Cycles: exec.ScanCyclesPerLine, Instrs: exec.ScanInstrsPerLine}
					}
					m.AccessBatch(0, ops)
				}
			} else {
				for i := 0; i < perBatch; i++ {
					m.Access(0, addr(), pat.write)
				}
			}
			if s := pat.share(m.Stats(0).Sub(before)); s < 0.99 {
				return 0, fmt.Errorf("only %.4f of accesses had the expected outcome", s)
			}
			return perBatch, nil
		})
	}
}

// --- exec ---

func probeExec(p *prober, seed int64) {
	const rows = 1 << 16
	names := []string{"exec.drive_ns_per_row.scan", "exec.drive_ns_per_row.agg_local",
		"exec.drive_ns_per_row.join_build", "exec.drive_ns_per_row.join_probe"}
	sys, err := probeSystem(seed)
	var scanCol, groupCol, valueCol, keyCol *column.Column
	gen := func(name string, hi int64) (c *column.Column) {
		if err == nil {
			c, err = cachepart.GenerateColumn(sys, name, rows, 1, hi)
		}
		return c
	}
	const keys = 1 << 20
	if err == nil {
		scanCol, groupCol = gen("probe.scan", 1<<15), gen("probe.g", aggGroups/32)
		valueCol, keyCol = gen("probe.v", aggDistinct/32), gen("probe.k", keys)
	}
	var bv *exec.BitVector
	if err == nil {
		bv, err = exec.NewBitVector(sys.Space, "probe.bv", 1, keys)
	}
	if err != nil {
		for _, n := range names {
			p.setupFailed(n, err)
		}
		return
	}
	ctx := sys.Engine.Ctx(0)
	drive := func(k exec.Kernel, err error) error {
		if err != nil {
			return err
		}
		if got := exec.Drive(ctx, k, 0); got != rows {
			return fmt.Errorf("kernel processed %d of %d rows", got, rows)
		}
		return nil
	}
	wantCount := scanCol.Codes.CountInRange(0, rows, scanCol.Dict.LowerBound(1<<14+1), uint32(scanCol.Dict.Len()))
	p.measure(names[0], func() (int, error) {
		k, err := exec.NewColumnScan(scanCol, 0, rows, 1<<14)
		if err := drive(k, err); err != nil {
			return 0, err
		}
		if k.Count != wantCount {
			return 0, fmt.Errorf("scan counted %d, reference %d", k.Count, wantCount)
		}
		return rows, nil
	})
	table := exec.NewAggTable(sys.Space, "probe.agg", aggGroups/32)
	p.measure(names[1], func() (int, error) {
		table.Clear()
		k, err := exec.NewAggLocal(groupCol, valueCol, 0, rows, table)
		if err := drive(k, err); err != nil {
			return 0, err
		}
		if table.Len() == 0 || table.Len() > aggGroups/32 {
			return 0, fmt.Errorf("aggregation produced %d groups", table.Len())
		}
		return rows, nil
	})
	p.measure(names[2], func() (int, error) {
		k, err := exec.NewJoinBuild(keyCol, 0, rows, bv)
		return rows, drive(k, err)
	})
	p.measure(names[3], func() (int, error) {
		k, err := exec.NewJoinProbe(keyCol, 0, rows, bv)
		if err := drive(k, err); err != nil {
			return 0, err
		}
		if k.Matches != rows { // every probed key was set by the build probe
			return 0, fmt.Errorf("probe matched %d of %d built keys", k.Matches, rows)
		}
		return rows, nil
	})
}

// --- engine ---

// noopQuery plans one phase of kernels that only charge compute, so a
// run over it costs what the engine and the serving tier add per
// scheduling slice: min-clock stepping, budgets, barriers, planning.
//
//conc:shared probes run only the serial simulator, so the step counter is written from one goroutine
type noopQuery struct {
	rows  int
	steps int
}

//conc:shared kernel instance is bound to one core's slot and stepped only by the serial loop
type noopKernel struct {
	q    *noopQuery
	left int
}

func (q *noopQuery) Name() string { return "noop" }

func (q *noopQuery) Plan(cores int, _ *rand.Rand) ([]cachepart.Phase, error) {
	ks := make([]exec.Kernel, cores)
	for i := range ks {
		ks[i] = &noopKernel{q: q, left: q.rows}
	}
	return []cachepart.Phase{{Name: "noop", CUID: cachepart.Sensitive, Kernels: ks, CountRows: true}}, nil
}

func (k *noopKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	k.q.steps++
	if budget > k.left {
		budget = k.left
	}
	ctx.Compute(int64(budget), uint64(budget))
	k.left -= budget
	return budget, k.left == 0
}

func probeEngine(p *prober) {
	const name = "engine.step_overhead_ns"
	sys, err := probeSystem(1)
	if err != nil {
		p.setupFailed(name, err)
		return
	}
	sys.Params.Duration = 0.0005
	q := &noopQuery{rows: 1 << 12}
	p.measure(name, func() (int, error) {
		q.steps = 0
		m, err := sys.RunIsolated(q, sys.AllCores())
		if err != nil {
			return 0, err
		}
		if m.Executions == 0 || q.steps == 0 {
			return 0, fmt.Errorf("no-op query completed %d executions in %d steps", m.Executions, q.steps)
		}
		return q.steps, nil
	})
}

// --- serve ---

func probeServe(p *prober, seed int64) {
	const gen, dispatch = "serve.gen_arrivals_ns_per_arrival", "serve.dispatch_ns_per_query"
	sys, err := probeSystem(seed)
	if err != nil {
		p.setupFailed(gen, err)
		p.setupFailed(dispatch, err)
		return
	}
	q := &noopQuery{rows: 64}
	groups := serveGroupCores()
	instances := make([]cachepart.Query, len(groups))
	for g := range instances {
		instances[g] = q
	}
	const arrivals, rate = 4096, 1e6
	cfg := serve.Config{
		Seed:    seed,
		Horizon: arrivals / rate,
		Tenants: make([]serve.Tenant, len(serveShares)),
	}
	for ti, share := range serveShares {
		cfg.Tenants[ti] = serve.Tenant{
			Name:    fmt.Sprintf("t%d", ti),
			Process: serve.Process{Kind: serve.ProcPoisson, Rate: rate * share},
			Mix:     []serve.Workload{{Name: "noop", Weight: 1, Instances: instances}},
		}
	}
	p.measure(gen, func() (int, error) {
		as, err := serve.GenArrivals(sys.Machine, cfg)
		if err != nil {
			return 0, err
		}
		if n := float64(len(as)); math.Abs(n-arrivals) > 0.1*arrivals {
			return 0, fmt.Errorf("generated %d arrivals, expected about %d", len(as), arrivals)
		}
		for i := 1; i < len(as); i++ {
			if as[i].Tick < as[i-1].Tick {
				return 0, fmt.Errorf("arrival %d is out of order", i)
			}
		}
		return len(as), nil
	})
	p.measure(dispatch, func() (int, error) {
		rep, err := serve.Run(sys.Engine, groups, cfg)
		if err != nil {
			return 0, err
		}
		if rep.Completed != rep.Arrivals || rep.Dropped != 0 {
			return 0, fmt.Errorf("completed %d of %d arrivals, dropped %d", rep.Completed, rep.Arrivals, rep.Dropped)
		}
		return int(rep.Completed), nil
	})
}

// --- resctrl ---

func probeResctrl(p *prober) {
	const name = "resctrl.mask_write_ns"
	m, err := probeMachine()
	if err != nil {
		p.setupFailed(name, err)
		return
	}
	fs := resctrl.Mount(m.CAT())
	groups := [2]string{"probe-a", "probe-b"}
	for i, g := range groups {
		if err = fs.MakeGroup(g); err == nil {
			err = fs.WriteSchemata(g, resctrl.FormatSchemata(cat.FullMask(2+2*i)))
		}
		if err != nil {
			p.setupFailed(name, err)
			return
		}
	}
	const tid, moves = 1000, 1 << 12
	p.measure(name, func() (int, error) {
		before := fs.Writes()
		for i := 0; i < moves; i++ {
			g := groups[i&1]
			if err := fs.MoveTask(tid, g); err != nil {
				return 0, err
			}
			if err := fs.Schedule(tid, 0); err != nil {
				return 0, err
			}
		}
		// The first move of a batch may repeat the last group of the
		// previous one; every other move is a real write.
		if w := fs.Writes() - before; w < moves-1 {
			return 0, fmt.Errorf("%d moves made %d writes", moves, w)
		}
		return moves, nil
	})
}
