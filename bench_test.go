package cachepart

// One benchmark per table/figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
// Each benchmark iteration runs the complete (scaled-down) experiment
// and reports the figure's headline quantity as a custom metric, so
// `go test -bench=.` regenerates every result:
//
//	norm_min/max     — normalized throughput extremes of a sweep
//	gain_*           — partitioned vs shared throughput ratio
//	...
//
// Benchmarks run at 1/64 scale with short windows; the cmd/cachepart
// tool runs the same experiments at 1/8 scale with full sweeps.

import (
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
	"cachepart/internal/resctrl"
)

// kernelIface aliases the operator kernel contract for the ablation
// benches.
type kernelIface = exec.Kernel

func newSortAgg(space *memory.Space, g, v *Column, n int) (kernelIface, error) {
	return exec.NewSortAggLocal(space, g, v, 0, n, 64)
}

func newHashAgg(space *memory.Space, g, v *Column, n int) (kernelIface, error) {
	tab := exec.NewAggTable(space, "bench.hash", g.Dict.Len())
	return exec.NewAggLocal(g, v, 0, n, tab)
}

func driveKernel(ctx *exec.Ctx, k kernelIface) {
	exec.Drive(ctx, k, 2048)
}

// benchParams are small enough that one experiment fits in a
// benchmark iteration.
func benchParams() Params {
	return Params{
		Scale:     64,
		Cores:     8,
		Ways:      []int{2, 8, 20},
		Duration:  0.002,
		RowsScan:  1 << 21,
		RowsAgg:   1 << 19,
		RowsProbe: 1 << 19,
		Seed:      1,
	}
}

func reportNorms(b *testing.B, pts []WayPoint) {
	b.Helper()
	lo, hi := 1.0, 0.0
	for _, p := range pts {
		if p.Norm < lo {
			lo = p.Norm
		}
		if p.Norm > hi {
			hi = p.Norm
		}
	}
	b.ReportMetric(lo, "norm_min")
	b.ReportMetric(hi, "norm_max")
}

// BenchmarkFig4 — column scan vs LLC size (expect norm_min ≈ 1: flat).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Fig4(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportNorms(b, pts)
		}
	}
}

// BenchmarkFig5 — aggregation vs LLC size for the 40 MiB dictionary
// (expect norm_min well below 1: cache-sensitive).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		sys, err := NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		agg, err := NewAggQuery(sys, 10_000_000, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := sweepForBench(sys, agg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportNorms(b, pts)
		}
	}
}

// BenchmarkFig6 — foreign-key join vs LLC size at 10^8 keys (expect
// norm_min < 1: the LLC-comparable bit vector is sensitive).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		sys, err := NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		join, err := NewJoinQuery(sys, 100_000_000)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := sweepForBench(sys, join)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportNorms(b, pts)
		}
	}
}

// sweepForBench mirrors the harness way sweep through the public API.
func sweepForBench(sys *System, q Query) ([]WayPoint, error) {
	var pts []WayPoint
	best := 0.0
	for _, w := range sys.Params.Ways {
		if err := sys.Engine.LimitWays(w); err != nil {
			return nil, err
		}
		m, err := sys.RunIsolated(q, sys.AllCores())
		if err != nil {
			return nil, err
		}
		pts = append(pts, WayPoint{Ways: w, Measure: m})
		if m.Throughput > best {
			best = m.Throughput
		}
	}
	if err := sys.Engine.LimitWays(0); err != nil {
		return nil, err
	}
	for i := range pts {
		pts[i].Norm = pts[i].Measure.Throughput / best
	}
	return pts, nil
}

// benchPair measures shared vs partitioned for one co-run and reports
// the victim's gain.
func benchPair(b *testing.B, sys *System, qa Query, qb Query, oltpSplit bool) {
	b.Helper()
	var ca, cb []int
	if oltpSplit {
		all := sys.AllCores()
		ca, cb = all[:len(all)-1], all[len(all)-1:]
	} else {
		ca, cb = sys.SplitCores()
	}
	isoB, err := sys.RunIsolated(qb, cb)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetPartitioning(false); err != nil {
		b.Fatal(err)
	}
	_, shared, err := sys.RunPair(qa, ca, qb, cb)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetPartitioning(true); err != nil {
		b.Fatal(err)
	}
	_, part, err := sys.RunPair(qa, ca, qb, cb)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetPartitioning(false); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(shared.Throughput/isoB.Throughput, "norm_shared")
	b.ReportMetric(part.Throughput/isoB.Throughput, "norm_partitioned")
	b.ReportMetric(part.Throughput/shared.Throughput, "gain")
}

// BenchmarkFig9 — scan ∥ aggregation at the sensitive group count
// (expect gain > 1).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		scan, err := NewScanQuery(sys)
		if err != nil {
			b.Fatal(err)
		}
		agg, err := NewAggQuery(sys, 10_000_000, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		benchPair(b, sys, scan, agg, false)
	}
}

// BenchmarkFig10 — aggregation ∥ join at 10^8 keys: the join60 scheme
// must beat join10 for the sensitive bit vector.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		agg, err := NewAggQuery(sys, 10_000_000, 1_000)
		if err != nil {
			b.Fatal(err)
		}
		join, err := NewJoinQuery(sys, 100_000_000)
		if err != nil {
			b.Fatal(err)
		}
		ca, cb := sys.SplitCores()
		isoJoin, err := sys.RunIsolated(join, cb)
		if err != nil {
			b.Fatal(err)
		}
		// The default policy applies the bit-vector heuristic, which
		// selects the 60% slice here.
		if err := sys.SetPartitioning(true); err != nil {
			b.Fatal(err)
		}
		_, j, err := sys.RunPair(agg, ca, join, cb)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(j.Throughput/isoJoin.Throughput, "norm_join_auto")
	}
}

// BenchmarkFig11 — TPC-H Q1 (the paper's biggest TPC-H winner) ∥ scan.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.RowsAgg = 1 << 18
		sys, err := NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		db, err := NewTPCH(sys)
		if err != nil {
			b.Fatal(err)
		}
		q1, err := NewTPCHQuery(sys, db, 1)
		if err != nil {
			b.Fatal(err)
		}
		scan, err := NewScanQuery(sys)
		if err != nil {
			b.Fatal(err)
		}
		benchPair(b, sys, scan, q1, false)
	}
}

// BenchmarkFig12 — scan ∥ S/4HANA OLTP query, 13 projected columns.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		acdoca, err := NewACDOCA(sys, 1<<19)
		if err != nil {
			b.Fatal(err)
		}
		oltp, err := NewOLTPQuery(acdoca, 13)
		if err != nil {
			b.Fatal(err)
		}
		scan, err := NewScanQuery(sys)
		if err != nil {
			b.Fatal(err)
		}
		benchPair(b, sys, scan, oltp, true)
	}
}

// BenchmarkFig1 — the teaser (same workload as Fig12a).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig1(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Concurrent, "norm_concurrent")
			b.ReportMetric(r.Partitioned, "norm_partitioned")
		}
	}
}

// BenchmarkAdaptiveVsStatic — the Figure 9(b) co-run under no
// partitioning, the paper's static scheme, and the online feedback
// controller with annotations stripped: the controller must recover
// most of the static gain without being told which query is the scan.
func BenchmarkAdaptiveVsStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := FigAdapt(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			shared, _ := r.Blind.Arm("shared")
			static, _ := r.Annotated.Arm("static")
			adaptive, _ := r.Blind.Arm("adaptive")
			b.ReportMetric(shared.NormB, "norm_none")
			b.ReportMetric(static.NormB, "norm_static")
			b.ReportMetric(adaptive.NormB, "norm_adaptive")
			if shared.NormB > 0 {
				b.ReportMetric(static.NormB/shared.NormB, "gain_static")
				b.ReportMetric(adaptive.NormB/shared.NormB, "gain_adaptive")
			}
		}
	}
}

// BenchmarkServe — one FigServe sweep at the 1.0× saturation point:
// seeded arrival generation, admission, CLOS-aware dispatch and the
// percentile report for all three partitioning arms. The reported
// p99 gain is the headline serving claim (static tail latency over
// shared-pool; >1 is better).
func BenchmarkServe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := FigServeOpts(benchParams(), ServeOptions{Loads: []float64{1.0}, Arrivals: 120})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			arms := map[string]*ServeReport{}
			for _, arm := range r.Loads[0].Arms {
				arms[arm.Name] = arm.Report
			}
			if shared, static := arms["shared"], arms["static"]; shared != nil && static != nil && static.P99 > 0 {
				b.ReportMetric(float64(shared.P99)/float64(static.P99), "p99_gain_static")
			}
		}
	}
}

// BenchmarkOverload — one FigOverload point at 3× rogue-polluter
// overload on the static arm: SLO deadlines, polluter-first shedding,
// circuit breakers and client retries end to end. The reported metric
// is the headline robustness claim — victim p99 under no-shed over
// victim p99 under polluter-first shedding (>1 means shedding the
// polluter recovers the victim's tail).
func BenchmarkOverload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := FigOverloadOpts(benchParams(), OverloadOptions{
			Loads:    []float64{3.0},
			Sheds:    []string{"none", "polluter"},
			Arms:     []string{"static"},
			Arrivals: 160,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			ld := r.Loads[0]
			none, pol := ld.Run("static", "none"), ld.Run("static", "polluter")
			if none != nil && pol != nil && pol.Tenants[r.Victim].P99 > 0 {
				b.ReportMetric(float64(none.Tenants[r.Victim].P99)/float64(pol.Tenants[r.Victim].P99),
					"victim_p99_recovery")
				b.ReportMetric(pol.Tenants[r.Victim].SLOAttainment, "victim_slo_polluter")
			}
		}
	}
}

// BenchmarkMaskWrite measures the engine's CUID-to-mask path (the
// Section V-C overhead concern): one task move plus scheduler update.
func BenchmarkMaskWrite(b *testing.B) {
	cfg := cachesim.DefaultConfig()
	m, err := cachesim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fs := resctrl.Mount(m.CAT())
	if err := fs.MakeGroup("polluting"); err != nil {
		b.Fatal(err)
	}
	if err := fs.WriteSchemata("polluting", "L3:0=3"); err != nil {
		b.Fatal(err)
	}
	groups := []string{"polluting", resctrl.RootGroup}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.MoveTask(1000, groups[i%2]); err != nil {
			b.Fatal(err)
		}
		if err := fs.Schedule(1000, i%22); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorAccess measures raw simulation speed: mixed
// sequential and random accesses through the full hierarchy.
func BenchmarkSimulatorAccess(b *testing.B) {
	cfg := cachesim.DefaultConfig().Scaled(16)
	cfg.Cores = 4
	m, err := cachesim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	space := memory.NewSpace()
	region := space.Alloc("bench", 16<<20)
	b.ResetTimer()
	var seq uint64
	rnd := uint64(12345)
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.Access(0, region.Addr(seq%region.Size), false)
			seq += memory.LineSize
		} else {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			m.Access(1, region.Addr(rnd%region.Size), false)
		}
	}
}

// BenchmarkSimulatorAccessBatch measures the same access mix through
// the batched front door (Machine.AccessBatch), a loop over Access with
// bit-identical results.
func BenchmarkSimulatorAccessBatch(b *testing.B) {
	cfg := cachesim.DefaultConfig().Scaled(16)
	cfg.Cores = 4
	m, err := cachesim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	space := memory.NewSpace()
	region := space.Alloc("bench", 16<<20)
	const chunk = 256
	ops := make([]cachesim.BatchOp, chunk)
	b.ResetTimer()
	var seq uint64
	rnd := uint64(12345)
	for done := 0; done < b.N; {
		n := min(chunk, b.N-done)
		for i := 0; i < n; i++ {
			if (done+i)%2 == 0 {
				ops[i] = cachesim.BatchOp{Addr: region.Addr(seq % region.Size)}
				seq += memory.LineSize
			} else {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				ops[i] = cachesim.BatchOp{Addr: region.Addr(rnd % region.Size)}
			}
		}
		m.AccessBatch(0, ops[:n])
		done += n
	}
}

// BenchmarkAblationMaskWidth reproduces the paper's Section V-B note:
// restricting the scan to a single way ("0x1") degrades it measurably
// more than the 10% two-way slice.
func BenchmarkAblationMaskWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		scan, err := NewScanQuery(sys)
		if err != nil {
			b.Fatal(err)
		}
		cores := sys.AllCores()
		throughputAt := func(ways int) float64 {
			if err := sys.Engine.LimitWays(ways); err != nil {
				b.Fatal(err)
			}
			m, err := sys.RunIsolated(scan, cores)
			if err != nil {
				b.Fatal(err)
			}
			return m.Throughput
		}
		one := throughputAt(1)
		two := throughputAt(2)
		full := throughputAt(20)
		if err := sys.Engine.LimitWays(0); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(one/full, "norm_mask0x1")
			b.ReportMetric(two/full, "norm_mask0x3")
		}
	}
}

// BenchmarkAblationPrefetcher contrasts scan throughput with the
// stride prefetcher on and off — the mechanism that makes scans
// bandwidth-bound rather than latency-bound.
func BenchmarkAblationPrefetcher(b *testing.B) {
	run := func(depth int) float64 {
		p := benchParams()
		sys, err := NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sys.Machine.Config()
		cfg.PrefetchDepth = depth
		m2, err := cachesim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e2, err := engine.New(m2, sys.Engine.Policy())
		if err != nil {
			b.Fatal(err)
		}
		sys.Machine, sys.Engine = m2, e2
		scan, err := NewScanQuery(sys)
		if err != nil {
			b.Fatal(err)
		}
		meas, err := sys.RunIsolated(scan, sys.AllCores())
		if err != nil {
			b.Fatal(err)
		}
		return meas.Throughput
	}
	for i := 0; i < b.N; i++ {
		on := run(16)
		off := run(0)
		if i == b.N-1 {
			b.ReportMetric(on/off, "prefetch_speedup")
		}
	}
}

// BenchmarkAblationHashVsSortAgg contrasts the two aggregation
// families of the related work ("hashing is sorting"): the hash
// aggregation's throughput depends on the LLC slice, the sort-based
// radix aggregation's barely does.
func BenchmarkAblationHashVsSortAgg(b *testing.B) {
	run := func(useSort bool, limitWays int) float64 {
		p := benchParams()
		sys, err := NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Engine.LimitWays(limitWays); err != nil {
			b.Fatal(err)
		}
		space := sys.Space
		n := 1 << 18
		// Group count chosen so the hash table is LLC-sized at this
		// scale, the most cache-sensitive regime.
		groups, err := GenerateColumn(sys, "g", n, 1, 40_000)
		if err != nil {
			b.Fatal(err)
		}
		values, err := GenerateColumn(sys, "v", n, 1, 1000)
		if err != nil {
			b.Fatal(err)
		}
		ctx := sys.Engine.Ctx(0)
		var k kernelIface
		if useSort {
			k, err = newSortAgg(space, groups, values, n)
		} else {
			k, err = newHashAgg(space, groups, values, n)
		}
		if err != nil {
			b.Fatal(err)
		}
		driveKernel(ctx, k)
		return float64(n) / sys.Machine.Seconds(sys.Machine.Now(0))
	}
	for i := 0; i < b.N; i++ {
		hashRatio := run(false, 2) / run(false, 20)
		sortRatio := run(true, 2) / run(true, 20)
		if i == b.N-1 {
			b.ReportMetric(hashRatio, "hash_norm_2way")
			b.ReportMetric(sortRatio, "sort_norm_2way")
		}
	}
}

// BenchmarkAblationInclusiveLLC contrasts the pollution damage with an
// inclusive vs non-inclusive LLC: back-invalidation makes pollution
// reach the victim's private caches.
func BenchmarkAblationInclusiveLLC(b *testing.B) {
	run := func(inclusive bool) float64 {
		p := benchParams()
		sys, err := NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sys.Machine.Config()
		cfg.InclusiveLLC = inclusive
		m2, err := cachesim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e2, err := engine.New(m2, sys.Engine.Policy())
		if err != nil {
			b.Fatal(err)
		}
		sys.Machine, sys.Engine = m2, e2
		scan, err := NewScanQuery(sys)
		if err != nil {
			b.Fatal(err)
		}
		agg, err := NewAggQuery(sys, 10_000_000, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		ca, cb := sys.SplitCores()
		iso, err := sys.RunIsolated(agg, cb)
		if err != nil {
			b.Fatal(err)
		}
		_, shared, err := sys.RunPair(scan, ca, agg, cb)
		if err != nil {
			b.Fatal(err)
		}
		return shared.Throughput / iso.Throughput
	}
	for i := 0; i < b.N; i++ {
		inc := run(true)
		non := run(false)
		if i == b.N-1 {
			b.ReportMetric(inc, "norm_inclusive")
			b.ReportMetric(non, "norm_noninclusive")
		}
	}
}
