package harness

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/fault"
	"cachepart/internal/serve"
	"cachepart/internal/workload/s4"
	"cachepart/internal/workload/tpch"
)

// serve.go: the FigServe capacity-sweep experiment — the serving tier
// (internal/serve) exercised over three tenants built from the
// repository's existing kernels, under shared-cache, the paper's static
// scheme, and the adaptive controller, at fractions of the system's
// estimated capacity.

// ServeOptions tunes the capacity sweep.
type ServeOptions struct {
	// Loads are the offered-load multiples of estimated capacity;
	// default {0.7, 1.0, 3.0}.
	Loads []float64
	// Arrivals is the target arrival count per load point (sets the
	// horizon); default 240.
	Arrivals int
	// QueueCap bounds every tenant queue; default 16. Tight caps keep
	// overload latencies service-bound (load shedding) instead of
	// wait-bound.
	QueueCap int
	// Faults, when non-nil, interposes the seeded control-plane fault
	// injector for every run of the sweep (chaos interop).
	Faults *fault.Config
}

func (o *ServeOptions) setDefaults() {
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.7, 1.0, 3.0}
	}
	if o.Arrivals <= 0 {
		o.Arrivals = 240
	}
	if o.QueueCap <= 0 {
		// Tight queues keep overload latency service-bound: the 3x
		// point sheds load instead of reporting pure queueing delay,
		// so the arms' cache behaviour stays visible in the tail.
		o.QueueCap = 16
	}
}

// ServeArmReport is one policy arm at one load point.
type ServeArmReport struct {
	Name   string
	Report *serve.Report
}

// ServeLoad is one load point of the sweep.
type ServeLoad struct {
	// Load is the multiple of estimated capacity; RateQPS the resulting
	// aggregate offered rate in queries per simulated second.
	Load    float64
	RateQPS float64
	Arms    []ServeArmReport
}

// ServeResult is the FigServe experiment.
type ServeResult struct {
	// CapacityQPS is the estimated saturation throughput: group count
	// over the tenants' rate-weighted mean isolated service time.
	CapacityQPS float64
	// BaselineTicks are the per-tenant isolated mean service times the
	// slowdown metric normalises by.
	BaselineTicks []float64
	// SecondsPerTick converts the reports' virtual ticks to simulated
	// seconds.
	SecondsPerTick float64
	Groups         int
	Loads          []ServeLoad
}

// chunkScanQuery is the serving-sized slice of the paper's polluting
// column scan: each execution scans a random fixed-length window of
// the big Query 1 column, so one query is a few hundred microseconds
// instead of a full-table pass, while the access pattern stays a
// streaming, cache-polluting scan.
type chunkScanQuery struct {
	label    string
	col      *column.Column
	rows     int
	distinct int64
}

func (q *chunkScanQuery) Name() string { return q.label }

func (q *chunkScanQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	total := q.col.Rows()
	rows := q.rows
	if rows > total {
		rows = total
	}
	start := 0
	if total > rows {
		start = int(rng.Int63n(int64(total - rows + 1)))
	}
	bound := 1 + rng.Int63n(q.distinct)
	parts := engine.PartitionRows(rows, cores)
	kernels := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		k, err := exec.NewColumnScan(q.col, start+p[0], start+p[1], bound)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	return []engine.Phase{{
		Name:      "serve-scan",
		CUID:      core.Polluting,
		Kernels:   kernels,
		CountRows: true,
	}}, nil
}

// serveShares returns how the offered load splits across the three
// tenants: the OLTP cohort dominates by query count, analytics is rare
// but heavy, the reporting scans sit between.
func serveShares() []float64 { return []float64{0.60, 0.15, 0.25} }

// serveGroups carves the machine into dispatch groups of two cores.
func (s *System) serveGroups() [][]int {
	all := s.AllCores()
	var groups [][]int
	for i := 0; i+1 < len(all); i += 2 {
		groups = append(groups, []int{all[i], all[i+1]})
	}
	return groups
}

// serveTenants builds the three-tenant cohort over the system's data
// sets, with one query instance per dispatch group where the query
// carries per-execution scratch state.
func (s *System) serveTenants(groups int) ([]serve.Tenant, error) {
	table, err := loadS4(s)
	if err != nil {
		return nil, err
	}
	oltp, err := s4.NewOLTPQuery(table, table.Big)
	if err != nil {
		return nil, err
	}
	db, err := tpch.Load(s.Space, s.Rng, tpch.Spec{
		Scale: s.Params.Scale,
		// Serving-sized statements: a few thousand lineitem rows per
		// execution instead of the closed-loop figures' millions.
		LineitemRows: 1 << 13,
	})
	if err != nil {
		return nil, err
	}
	// tpch queries carry per-execution aggregation scratch, so each
	// dispatch group needs its own instance over the shared tables.
	q1s := make([]engine.Query, groups)
	q6s := make([]engine.Query, groups)
	for g := 0; g < groups; g++ {
		if q1s[g], err = tpch.NewQuery(db, s.Space, 1); err != nil {
			return nil, err
		}
		if q6s[g], err = tpch.NewQuery(db, s.Space, 6); err != nil {
			return nil, err
		}
	}
	scan, err := NewQ1(s)
	if err != nil {
		return nil, err
	}
	chunk := &chunkScanQuery{
		label:    "serve-scan",
		col:      scan.Col,
		rows:     1 << 19,
		distinct: scan.Spec().Distinct,
	}

	return []serve.Tenant{
		{
			Name:    "oltp",
			Process: serve.Process{Kind: serve.ProcPoisson},
			Mix: []serve.Workload{{Name: "pklookup", Weight: 1,
				Instances: aliasQuery(oltp, groups), Class: int(core.Sensitive)}},
		},
		{
			Name: "analytics",
			// Analytics traffic follows a two-period diurnal profile
			// compressed into simulated time.
			Process: serve.Process{Kind: serve.ProcDiurnal, Periods: []serve.Period{
				{Seconds: 2e-4, Amplitude: 0.5},
				{Seconds: 8e-4, Amplitude: 0.3, Phase: 1.2},
			}},
			Mix: []serve.Workload{
				{Name: "tpch-q1", Weight: 2, Instances: q1s, Class: int(core.Sensitive)},
				{Name: "tpch-q6", Weight: 1, Instances: q6s, Class: int(core.Sensitive)},
			},
		},
		{
			Name:    "reporting",
			Process: serve.Process{Kind: serve.ProcPoisson},
			Mix: []serve.Workload{{Name: "chunk-scan", Weight: 1,
				Instances: aliasQuery(chunk, groups), Class: int(core.Polluting)}},
		},
	}, nil
}

func aliasQuery(q engine.Query, groups int) []engine.Query {
	out := make([]engine.Query, groups)
	for i := range out {
		out[i] = q
	}
	return out
}

// calibrateServe measures each tenant's isolated mixture-mean service
// time (full cache, no co-runners) on the first dispatch group and
// derives the system's estimated capacity λ* = groups / E[S].
func (s *System) calibrateServe(tenants []serve.Tenant, shares []float64, groups [][]int) (baselines []float64, capacityQPS float64, err error) {
	if err := s.SetPartitioning(false); err != nil {
		return nil, 0, err
	}
	baselines = make([]float64, len(tenants))
	var mixMean float64
	for ti := range tenants {
		t := &tenants[ti]
		var mean, wsum float64
		for wi := range t.Mix {
			w := &t.Mix[wi]
			res, err := s.Engine.Run(
				[]engine.StreamSpec{{Query: w.Instances[0], Cores: groups[0]}},
				s.runOptions(),
			)
			if err != nil {
				return nil, 0, fmt.Errorf("calibrating %s/%s: %w", t.Name, w.Name, err)
			}
			if len(res[0].Queries) == 0 {
				return nil, 0, fmt.Errorf("calibrating %s/%s: no execution completed in %vs", t.Name, w.Name, s.Params.Duration)
			}
			var sum int64
			for _, q := range res[0].Queries {
				sum += q.Ticks()
			}
			weight := float64(w.Weight)
			if weight <= 0 {
				weight = 1
			}
			mean += weight * float64(sum) / float64(len(res[0].Queries))
			wsum += weight
		}
		baselines[ti] = mean / wsum
		tenants[ti].BaselineTicks = baselines[ti]
		mixMean += shares[ti] * baselines[ti]
	}
	ticksPerSec := float64(s.Machine.Ticks(1))
	capacityQPS = float64(len(groups)) / (mixMean / ticksPerSec)
	return baselines, capacityQPS, nil
}

// serveSystem is what FigServe and FigOverload share: a system, its
// dispatch groups, the three cohorts with their load shares normalised
// to 1, and their calibrated isolated baselines and estimated capacity.
type serveSystem struct {
	sys       *System
	groups    [][]int
	tenants   []serve.Tenant
	shares    []float64
	baselines []float64
	capacity  float64
}

// newServeSystem builds and calibrates the serving setup. faults, when
// non-nil, is interposed after calibration, so the baselines are
// fault-free.
func newServeSystem(p Params, faults *fault.Config) (*serveSystem, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	groups := sys.serveGroups()
	if len(groups) < 2 {
		return nil, fmt.Errorf("harness: serving needs at least 4 cores")
	}
	tenants, err := sys.serveTenants(len(groups))
	if err != nil {
		return nil, err
	}
	shares := serveShares()
	var shareSum float64
	for _, share := range shares {
		shareSum += share
	}
	for ti := range shares {
		shares[ti] /= shareSum
	}
	baselines, capacity, err := sys.calibrateServe(tenants, shares, groups)
	if err != nil {
		return nil, err
	}
	if faults != nil {
		if _, err := sys.EnableChaos(*faults); err != nil {
			return nil, err
		}
	}
	return &serveSystem{sys: sys, groups: groups, tenants: tenants, shares: shares,
		baselines: baselines, capacity: capacity}, nil
}

// FigServe runs the serving-tier capacity sweep that p.Serve tunes:
// tenant rates are set to Load × estimated capacity (split by
// serveShares), and each load point runs under the shared-cache,
// static-partitioning and adaptive-controller arms. Reports are
// bit-identical per (Params.Seed, p.Serve) — including under fault
// injection.
func FigServe(p Params) (*ServeResult, error) {
	o := p.Serve
	o.setDefaults()
	ss, err := newServeSystem(p, o.Faults)
	if err != nil {
		return nil, err
	}
	sys, tenants := ss.sys, ss.tenants
	defer sys.DisableAdaptive()
	defer sys.DisableChaos()

	out := &ServeResult{
		CapacityQPS:    ss.capacity,
		BaselineTicks:  ss.baselines,
		SecondsPerTick: sys.Machine.Seconds(1),
		Groups:         len(ss.groups),
	}
	for _, load := range o.Loads {
		rate := load * ss.capacity
		point := ServeLoad{Load: load, RateQPS: rate}
		for ti := range tenants {
			tenants[ti].Process.Rate = rate * ss.shares[ti]
			tenants[ti].QueueCap = o.QueueCap
		}
		cfg := serve.Config{
			Seed:    p.Seed,
			Horizon: float64(o.Arrivals) / rate,
			Tenants: tenants,
		}
		for _, arm := range sys.adaptArms() {
			if err := arm.apply(); err != nil {
				return nil, err
			}
			r, err := serve.Run(sys.Engine, ss.groups, cfg)
			if err != nil {
				return nil, fmt.Errorf("serve %s at %.1fx: %w", arm.name, load, err)
			}
			point.Arms = append(point.Arms, ServeArmReport{Name: arm.name, Report: r})
		}
		sys.DisableAdaptive()
		out.Loads = append(out.Loads, point)
	}
	return out, nil
}

// PrintServe renders the capacity sweep: per load point, each arm's
// aggregate latency percentiles (in simulated µs), throughput, drop
// counts and Jain fairness over tenant slowdowns.
func PrintServe(w io.Writer, r *ServeResult) {
	fmt.Fprintf(w, "FigServe — open-loop serving over %d dispatch groups, capacity ≈ %.0f q/s\n",
		r.Groups, r.CapacityQPS)
	fmt.Fprintln(w, "(latencies in simulated µs; Jain over per-tenant slowdowns, 1.0 = perfectly fair)")
	us := func(ticks int64) float64 { return float64(ticks) * r.SecondsPerTick * 1e6 }
	for _, ld := range r.Loads {
		fmt.Fprintf(w, "\nload %.1fx (%.0f q/s offered)\n", ld.Load, ld.RateQPS)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "arm\tcompleted\tdropped\tdl\tshed\tbrk\tq/s\tp50 µs\tp99 µs\tp999 µs\tJain")
		for _, arm := range ld.Arms {
			rep := arm.Report
			var dl, sh, brk int64
			for _, tr := range rep.Tenants {
				dl += tr.DropDeadline
				sh += tr.DropShed
				brk += tr.DropBreaker
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.1f\t%.1f\t%.1f\t%.3f\n",
				arm.Name, rep.Completed, rep.Dropped, dl, sh, brk, rep.QPS,
				us(rep.P50), us(rep.P99), us(rep.P999), rep.Jain)
		}
		tw.Flush()
	}
	fmt.Fprintln(w)
}
