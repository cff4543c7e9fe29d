package main

import (
	"fmt"
	"hash/fnv"

	"cachepart"
	"cachepart/internal/cachesim"
	"cachepart/internal/serve"
)

// A spec is one workload: one set of inputs the benchmark runs. All
// four run the serial reference simulator at Scale 32 with 8 simulated
// cores (a 1.72 MiB, 20-way LLC) from one host goroutine. The seed is
// forwarded to Params.Seed — the data sets and the closed loops'
// per-execution parameters — and to nothing else.
type spec struct {
	name string
	// why is recorded in BENCHMARK.json and the README.
	why string
	// params sizes the system; quick shortens the windows tenfold for
	// the test suite.
	params func(seed int64, quick bool) cachepart.Params
	// build constructs the data sets and queries (timed as set-up,
	// together with NewSystem) and returns the measured section.
	build func(sys *cachepart.System, tr *tracer, quick bool) (section, error)
}

// section is the measured part of one repetition.
type section struct {
	run func() (outcome, error)
	// verify checks the program's outputs after run, outside the timed
	// section; it returns one message per failed check.
	verify func() []string
}

// outcome is what one measured section produced: the simulated
// results, exact per seed, and the counts the per-layer metrics
// report.
type outcome struct {
	ops        int                 // Run*/serve.Run calls made
	stats      cachepart.CoreStats // summed over all cores and all runs of the section
	throughput float64             // primary stream, per simulated second
	p99cycles  float64             // primary stream, simulated core cycles
	p99samples int64
	digest     uint64 // hash of every Measure/Report field and the CoreStats totals

	executions  int64   // primary stream
	thrShared   float64 // primary stream's throughput on the unpartitioned arm
	gain        float64 // partitioned ÷ unpartitioned throughput; 1 when there is one arm
	maskWrites  int
	serve       serveCounts
	transitions int // adaptive controller mask transitions
	schemata    int // adaptive controller schemata writes
	failures    []string
}

// serveCounts are the serving tier's counts on the static arm, plus the
// other arms' primary-tenant p99.
type serveCounts struct {
	arrivals, completed, dropped       int64
	meanDepth, groupUtil               float64
	p99SharedCycles, p99AdaptiveCycles float64
}

type digester struct{ h uint64 }

// add folds the %+v rendering of every value into an FNV-1a hash. The
// rendering covers every exported and unexported field, and floats
// print in their shortest exact form, so equal digests mean equal
// results bit for bit.
func (d *digester) add(vs ...any) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|", d.h)
	for _, v := range vs {
		fmt.Fprintf(h, "%+v|", v)
	}
	d.h = h.Sum64()
}

var workloads = []spec{
	{
		name:   "scan_iso",
		why:    "paper Query 1: streaming 7.5 MiB column scan (4.4x LLC) alone on 8 cores; loads column decode and the cachesim prefetch path, bypasses the demand path",
		params: func(seed int64, quick bool) cachepart.Params { return isoParams(seed, quick, 0.003) },
		build:  buildScanIso,
	},
	{
		name:   "agg_iso",
		why:    "paper Query 2: random dictionary and hash-table reads and writes, LLC-resident; loads the cachesim demand path and engine stepping, bypasses bulk column decode",
		params: func(seed int64, quick bool) cachepart.Params { return isoParams(seed, quick, 0.02) },
		build:  buildAggIso,
	},
	{
		name:   "corun_scan_agg",
		why:    "paper Fig 9b: scan on cores 0-3 beside aggregation on 4-7, shared then partitioned; every layer at once, the only closed loop with masked fills and mask writes",
		params: corunParams,
		build:  buildCorun,
	},
	{
		name:   "serve_mix",
		why:    "open loop in virtual time: oltp/analytics/reporting tenants at 55k q/s over 4 groups, shared/static/adaptive arms; only user of serve, RunOpenLoop, adapt and short queries",
		params: serveParams,
		build:  buildServeMix,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func isoParams(seed int64, quick bool, duration float64) cachepart.Params {
	p := cachepart.FastParams() // Scale 32, 8 cores, RowsScan 2^22, RowsAgg 2^20
	p.Seed = seed
	p.Duration = duration
	if quick {
		p.Duration /= 10
		p.RowsScan >>= 3
		p.RowsAgg >>= 3
	}
	return p
}

// cycles converts simulated seconds to simulated core cycles.
func cycles(sys *cachepart.System, seconds float64) float64 {
	return seconds * sys.Machine.Config().FreqHz
}

// buildKinds are the data sets a workload.build.<what> span can name.
var buildKinds = []string{"scan", "agg", "tpch", "acdoca"}

func (o *outcome) addStats(sys *cachepart.System) {
	o.stats.Add(sys.Machine.TotalStats())
}

// buildScan builds the paper's Query 1 at the system's RowsScan inside
// a workload.build.scan span.
func buildScan(sys *cachepart.System, tr *tracer) (scan cachepart.Query, err error) {
	err = tr.in(spanBuildPrefix+"scan", func() (err error) {
		scan, err = cachepart.NewScanQuery(sys)
		return err
	})
	return traceQuery(tr, scan), err
}

func buildScanIso(sys *cachepart.System, tr *tracer, _ bool) (section, error) {
	scan, err := buildScan(sys, tr)
	if err != nil {
		return section{}, err
	}
	return section{run: func() (outcome, error) {
		return runIsolated(sys, tr, scan)
	}}, nil
}

// runIsolated measures one query alone on all cores, unpartitioned.
func runIsolated(sys *cachepart.System, tr *tracer, q cachepart.Query) (outcome, error) {
	var m cachepart.Measure
	err := tr.in(spanRun, func() (err error) {
		m, err = sys.RunIsolated(q, sys.AllCores())
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		ops: 1, throughput: m.Throughput, p99cycles: cycles(sys, m.P99), p99samples: m.Executions,
		executions: m.Executions, thrShared: m.Throughput, gain: 1,
		maskWrites: sys.Engine.MaskWrites(),
	}
	o.addStats(sys)
	var d digester
	d.add(m, o.stats)
	o.digest = d.h
	return o, nil
}

// corunParams shortens the aggregation's input to 2^16 rows: beside the
// scan on four cores a 2^20-row execution outlasts the 0.004 s window,
// and the primary stream needs completed executions for its p99 and its
// result check. Dictionary and hash-table sizes, which set the cache
// behaviour, do not depend on the row count.
func corunParams(seed int64, quick bool) cachepart.Params {
	p := isoParams(seed, false, 0.004)
	p.RowsAgg = 1 << 16
	if quick {
		// The scan must stay larger than the LLC to pollute it.
		p.Duration /= 2
		p.RowsAgg >>= 1
	}
	return p
}

// aggNominal are the paper-nominal Query 2 parameters: the 40 MiB
// dictionary (10^7 distinct values) and 10^4 groups, scaled by 32.
const (
	aggDistinct = 10_000_000
	aggGroups   = 10_000
)

func buildAgg(sys *cachepart.System, tr *tracer) (cachepart.Query, func() []string, error) {
	var agg cachepart.Query
	err := tr.in(spanBuildPrefix+"agg", func() (err error) {
		agg, err = cachepart.NewAggQuery(sys, aggDistinct, aggGroups)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	verify := func() []string { return verifyAgg(agg) }
	return traceQuery(tr, agg), verify, nil
}

func buildAggIso(sys *cachepart.System, tr *tracer, _ bool) (section, error) {
	agg, verify, err := buildAgg(sys, tr)
	if err != nil {
		return section{}, err
	}
	return section{
		run:    func() (outcome, error) { return runIsolated(sys, tr, agg) },
		verify: verify,
	}, nil
}

func buildCorun(sys *cachepart.System, tr *tracer, _ bool) (section, error) {
	scan, err := buildScan(sys, tr)
	if err != nil {
		return section{}, err
	}
	agg, verify, err := buildAgg(sys, tr)
	if err != nil {
		return section{}, err
	}
	run := func() (outcome, error) {
		var o outcome
		var d digester
		ca, cb := sys.SplitCores()
		var arms [2]cachepart.Measure // the aggregation under shared, partitioned
		for i, partitioned := range []bool{false, true} {
			if err := sys.SetPartitioning(partitioned); err != nil {
				return o, err
			}
			var sm, am cachepart.Measure
			err := tr.in(spanRun, func() (err error) {
				sm, am, err = sys.RunPair(scan, ca, agg, cb)
				return err
			})
			if err != nil {
				return o, err
			}
			o.ops++
			o.addStats(sys)
			d.add(sm, am, sys.Machine.TotalStats())
			arms[i] = am
		}
		o.digest = d.h
		part := arms[1]
		o.throughput, o.p99cycles, o.p99samples = part.Throughput, cycles(sys, part.P99), part.Executions
		o.executions = part.Executions
		o.thrShared = arms[0].Throughput
		o.gain = part.Throughput / arms[0].Throughput
		o.maskWrites = sys.Engine.MaskWrites()
		// The paper's shape (Fig 9b): partitioning protects the
		// aggregation from the scan.
		if o.gain <= 1.2 {
			o.failures = append(o.failures, fmt.Sprintf("paper shape broken: partitioned/shared aggregation throughput %.3f <= 1.2", o.gain))
		}
		return o, nil
	}
	return section{run: run, verify: verify}, nil
}

// Serving mix: offered rate, arrival count, tenant shares and the
// arrival schedule are frozen here; the static arm runs at group
// utilisation 0.79 with no drops.
//
// The schedule seed is a constant, not --seed: 800 arrivals are 14.5
// simulated ms, and over that span the luck of the Poisson draw moves
// the oltp p99 by 60 % and host time by 12 % from one schedule to the
// next (README "Noise") — more than any bound a benchmark could hold a
// change to. So serve_mix replays one schedule, like a recorded trace,
// against data sets generated from --seed.
const (
	serveRateQPS      = 55_000
	serveArrivals     = 800
	serveQueueCap     = 16
	serveGroups       = 4
	serveScheduleSeed = 1
)

var serveShares = [3]float64{0.72, 0.22, 0.06}

// serveGroupCores carves the 8 cores into dispatch groups of two.
func serveGroupCores() [][]int {
	groups := make([][]int, serveGroups)
	for g := range groups {
		groups[g] = []int{2 * g, 2*g + 1}
	}
	return groups
}

func serveParams(seed int64, quick bool) cachepart.Params {
	p := cachepart.FastParams()
	p.Seed = seed
	p.RowsAgg = 1 << 13  // TPC-H lineitem rows per execution
	p.RowsScan = 1 << 20 // reporting scan
	return p
}

func buildServeMix(sys *cachepart.System, tr *tracer, quick bool) (section, error) {
	// alias gives every dispatch group the same stateless query.
	alias := func(q cachepart.Query) []cachepart.Query {
		out := make([]cachepart.Query, serveGroups)
		for g := range out {
			out[g] = q
		}
		return out
	}
	var oltp cachepart.Query
	err := tr.in(spanBuildPrefix+"acdoca", func() error {
		table, err := cachepart.NewACDOCA(sys, 1<<19)
		if err != nil {
			return err
		}
		oltp, err = cachepart.NewOLTPQuery(table, 13)
		return err
	})
	if err != nil {
		return section{}, err
	}
	// TPC-H queries carry per-execution aggregation scratch, so each
	// dispatch group gets its own instance over the shared tables.
	q1s := make([]cachepart.Query, serveGroups)
	q6s := make([]cachepart.Query, serveGroups)
	err = tr.in(spanBuildPrefix+"tpch", func() error {
		db, err := cachepart.NewTPCH(sys)
		for g := 0; g < serveGroups && err == nil; g++ {
			if q1s[g], err = cachepart.NewTPCHQuery(sys, db, 1); err == nil {
				q6s[g], err = cachepart.NewTPCHQuery(sys, db, 6)
			}
			q1s[g], q6s[g] = traceQuery(tr, q1s[g]), traceQuery(tr, q6s[g])
		}
		return err
	})
	if err != nil {
		return section{}, err
	}
	scan, err := buildScan(sys, tr)
	if err != nil {
		return section{}, err
	}
	tenant := func(name string, share float64, mix ...serve.Workload) serve.Tenant {
		return serve.Tenant{
			Name:     name,
			Process:  serve.Process{Kind: serve.ProcPoisson, Rate: serveRateQPS * share},
			Mix:      mix,
			QueueCap: serveQueueCap,
		}
	}
	arrivals := serveArrivals
	if quick {
		arrivals /= 10
	}
	sensitive, polluting := int(cachepart.Sensitive), int(cachepart.Polluting)
	cfg := serve.Config{
		Seed:    serveScheduleSeed,
		Horizon: float64(arrivals) / serveRateQPS,
		Tenants: []serve.Tenant{
			tenant("oltp", serveShares[0],
				serve.Workload{Name: "pklookup", Weight: 1, Instances: alias(traceQuery(tr, oltp)), Class: sensitive}),
			tenant("analytics", serveShares[1],
				serve.Workload{Name: "tpch-q1", Weight: 2, Instances: q1s, Class: sensitive},
				serve.Workload{Name: "tpch-q6", Weight: 1, Instances: q6s, Class: sensitive}),
			tenant("reporting", serveShares[2],
				serve.Workload{Name: "scan", Weight: 1, Instances: alias(scan), Class: polluting}),
		},
	}
	groups := serveGroupCores()
	run := func() (outcome, error) { return runServeArms(sys, tr, groups, cfg) }
	return section{run: run}, nil
}

// runServeArms serves the same arrival schedule under the shared,
// static and adaptive arms. The primary stream is tenant oltp on the
// static arm.
func runServeArms(sys *cachepart.System, tr *tracer, groups [][]int, cfg serve.Config) (outcome, error) {
	var o outcome
	var d digester
	defer sys.DisableAdaptive()
	var ctrl *cachepart.AdaptController
	arms := []struct {
		name  string
		apply func() error
	}{
		{"shared", func() error { return sys.SetPartitioning(false) }},
		{"static", func() error { return sys.SetPartitioning(true) }},
		{"adaptive", func() (err error) {
			if err = sys.SetPartitioning(false); err != nil {
				return err
			}
			ctrl, err = sys.EnableAdaptive(cachepart.DefaultAdaptConfig())
			return err
		}},
	}
	var p99 [3]float64
	for i, arm := range arms {
		if err := arm.apply(); err != nil {
			return o, err
		}
		var rep *serve.Report
		err := tr.in(spanRun, func() (err error) {
			rep, err = serve.Run(sys.Engine, groups, cfg)
			return err
		})
		if err != nil {
			return o, fmt.Errorf("serve %s: %w", arm.name, err)
		}
		o.ops++
		for _, g := range rep.Groups {
			o.stats.Add(g.Stats)
		}
		d.add(*rep)
		for _, t := range rep.Tenants {
			if t.Attempts != t.Completed+t.Dropped {
				o.failures = append(o.failures, fmt.Sprintf("%s arm: tenant %s attempts %d != completed %d + dropped %d",
					arm.name, t.Name, t.Attempts, t.Completed, t.Dropped))
			}
		}
		oltp := rep.Tenants[0]
		p99[i] = float64(oltp.P99) / cachesim.TicksPerCycle
		if arm.name != "static" {
			continue
		}
		o.throughput, o.p99cycles, o.p99samples = oltp.QPS, p99[i], oltp.Completed
		o.executions = oltp.Completed
		var busy, end int64
		for _, g := range rep.Groups {
			busy += g.BusyTicks
			end += g.EndTick
		}
		var depth float64
		for _, t := range rep.Tenants {
			depth += t.MeanDepth
		}
		o.serve = serveCounts{
			arrivals: rep.Arrivals, completed: rep.Completed, dropped: rep.Dropped,
			meanDepth: depth, groupUtil: float64(busy) / float64(end),
		}
	}
	o.digest = d.h
	o.serve.p99SharedCycles, o.serve.p99AdaptiveCycles = p99[0], p99[2]
	o.thrShared = o.throughput // the open loop completes every arrival on every arm
	o.gain = 1
	o.maskWrites = sys.Engine.MaskWrites()
	o.transitions = len(ctrl.Transitions())
	o.schemata = ctrl.SchemataWrites()
	// The serving tier's shape (EXPERIMENTS.md FigServe): the static
	// scheme does not hurt the cache-sensitive tenant's tail.
	if p99[1] > p99[0] {
		o.failures = append(o.failures, fmt.Sprintf("serving shape broken: oltp p99 static %.0f cycles > shared %.0f cycles", p99[1], p99[0]))
	}
	return o, nil
}
