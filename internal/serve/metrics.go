package serve

import (
	"sort"

	"cachepart/internal/engine"
)

// metrics: folds engine Completions into the per-tenant reports the
// feed counted its admissions and drops into. Everything is in virtual ticks;
// rates use the machine's tick rate so "QPS" means queries per
// simulated second. Latency is client-visible: completion tick minus
// the query's FIRST arrival tick, so time a client spent backing off
// between retry attempts counts against the SLO.

// TenantReport is one tenant's slice of the serving report.
type TenantReport struct {
	Name string
	// Arrivals counts first attempts (the offered load); Attempts adds
	// client retries. The accounting identity is Attempts == Completed
	// + Dropped.
	Arrivals int64
	Attempts int64
	Admitted int64
	// Dropped sums the per-reason attempt drops below: bounded-FIFO
	// overflows, queueing-deadline expiries, deliberate overload
	// shedding, and circuit-breaker rejections.
	Dropped      int64
	DropQueue    int64
	DropDeadline int64
	DropShed     int64
	DropBreaker  int64
	// Retries counts re-arrivals the client retry model scheduled;
	// Abandoned counts queries lost for good (final attempt dropped).
	Retries   int64
	Abandoned int64
	// BreakerTrips counts open transitions of the tenant's circuit
	// breaker; Probes its half-open probe admissions.
	BreakerTrips int64
	Probes       int64
	Completed    int64
	// Good counts completions within the tenant's SLO
	// (all completions when no target is set); GoodQPS is goodput per
	// simulated second and SLOAttainment is Good over Arrivals — a
	// query abandoned by overload control counts against the SLO.
	Good          int64
	GoodQPS       float64
	SLOAttainment float64
	// Polluter is the classifier's final verdict: true when any of the
	// tenant's workload kinds ended the run classified as LLC-polluting.
	Polluter bool
	// QPS is completed queries per simulated second of the arrival
	// horizon.
	QPS float64
	// Latency percentiles and means are client-visible (first arrival
	// to completion) in virtual ticks; Wait is the final attempt's
	// queueing delay, Service its execution time.
	P50         int64
	P99         int64
	P999        int64
	MeanLatency float64
	MeanWait    float64
	MeanService float64
	// Slowdown is MeanLatency over the tenant's calibrated isolated
	// service time (0 when no baseline was configured).
	Slowdown float64
	// PeakDepth and MeanDepth describe the tenant's queue over the run
	// (mean is time-weighted over [0, EndTick]).
	PeakDepth int
	MeanDepth float64
}

// Report is the full result of one serving run.
type Report struct {
	Seed         int64
	HorizonTicks int64
	// EndTick is the virtual time the last query completed (the run
	// drains past the arrival horizon).
	EndTick   int64
	Arrivals  int64
	Attempts  int64
	Admitted  int64
	Dropped   int64
	Retries   int64
	Abandoned int64
	Completed int64
	Good      int64
	QPS       float64
	GoodQPS   float64
	// SLOAttainment is aggregate Good over aggregate Arrivals.
	SLOAttainment float64
	// Aggregate latency percentiles over all completions, in ticks.
	P50         int64
	P99         int64
	P999        int64
	MeanLatency float64
	// Jain is Jain's fairness index over per-tenant slowdowns (or mean
	// latencies when no baselines are configured): 1.0 means every
	// tenant degrades equally, 1/n means one tenant absorbs all of it.
	Jain    float64
	Tenants []TenantReport
	Groups  []engine.GroupResult
}

// percentile returns the q-quantile (0<q≤1) of sorted by the
// nearest-rank method; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latency sorts client latencies in place and returns their
// p50/p99/p999 and mean; all zero for none.
func latency(lat []int64) (p50, p99, p999 int64, mean float64) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum float64
	for _, v := range lat {
		sum += float64(v)
	}
	return percentile(lat, 0.50), percentile(lat, 0.99), percentile(lat, 0.999), sum / float64(len(lat))
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over positive
// entries.
func jain(xs []float64) float64 {
	var sum, sq float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += x
		sq += x * x
		n++
	}
	if n == 0 || sq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sq)
}

// buildReport folds completions into the feed's tenant reports and
// sums them into the Report.
func buildReport(cfg *Config, horizonTicks int64, ticksPerSec float64, f *feed, res *engine.OpenLoopResult) *Report {
	r := &Report{
		Seed:         cfg.Seed,
		HorizonTicks: horizonTicks,
		Tenants:      f.report,
		Groups:       res.Groups,
	}
	horizonSec := float64(horizonTicks) / ticksPerSec

	perTenant := make([][]int64, len(cfg.Tenants))
	var all []int64
	sumWait := make([]float64, len(cfg.Tenants))
	sumSvc := make([]float64, len(cfg.Tenants))
	good := make([]int64, len(cfg.Tenants))
	for _, c := range res.Completions {
		first := f.arrivals[c.Tag]
		t := first.Tenant
		lat := c.Done - first.Tick
		perTenant[t] = append(perTenant[t], lat)
		all = append(all, lat)
		sumWait[t] += float64(c.Wait())
		sumSvc[t] += float64(c.Service())
		if f.target[t] == 0 || lat <= f.target[t] {
			good[t]++
		}
		if c.Done > r.EndTick {
			r.EndTick = c.Done
		}
	}

	fair := make([]float64, 0, len(cfg.Tenants))
	for ti := range cfg.Tenants {
		t := &cfg.Tenants[ti]
		lat := perTenant[ti]
		tr := &r.Tenants[ti]
		tr.BreakerTrips = f.breakers[ti].trips
		tr.Probes = f.breakers[ti].probes
		tr.Completed = int64(len(lat))
		tr.Good = good[ti]
		tr.QPS = float64(tr.Completed) / horizonSec
		tr.GoodQPS = float64(tr.Good) / horizonSec
		if tr.Arrivals > 0 {
			tr.SLOAttainment = float64(tr.Good) / float64(tr.Arrivals)
		}
		for ki := range t.Mix {
			if f.tracker.polluter(ti, ki) {
				tr.Polluter = true
			}
		}
		tr.P50, tr.P99, tr.P999, tr.MeanLatency = latency(lat)
		if n := float64(len(lat)); n > 0 {
			tr.MeanWait = sumWait[ti] / n
			tr.MeanService = sumSvc[ti] / n
		}
		if t.BaselineTicks > 0 && tr.MeanLatency > 0 {
			tr.Slowdown = tr.MeanLatency / t.BaselineTicks
		}
		if f.endTick > 0 {
			tr.MeanDepth = f.depthSum[ti] / float64(f.endTick)
		}
		r.Arrivals += tr.Arrivals
		r.Attempts += tr.Attempts
		r.Admitted += tr.Admitted
		r.Dropped += tr.Dropped
		r.Retries += tr.Retries
		r.Abandoned += tr.Abandoned
		r.Completed += tr.Completed
		r.Good += tr.Good
		if tr.Slowdown > 0 {
			fair = append(fair, tr.Slowdown)
		} else if tr.MeanLatency > 0 {
			fair = append(fair, tr.MeanLatency)
		}
	}

	r.P50, r.P99, r.P999, r.MeanLatency = latency(all)
	r.QPS = float64(r.Completed) / horizonSec
	r.GoodQPS = float64(r.Good) / horizonSec
	if r.Arrivals > 0 {
		r.SLOAttainment = float64(r.Good) / float64(r.Arrivals)
	}
	r.Jain = jain(fair)
	return r
}
