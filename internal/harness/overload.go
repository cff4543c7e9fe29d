package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cachepart/internal/fault"
	"cachepart/internal/serve"
)

// overload.go: the FigOverload experiment — the serving tier driven
// past capacity (1x–5x) under SLO-aware overload control, sweeping the
// shedding policy (none / fair / polluter-first) against the three
// cache arms (shared / static / adaptive). The question the figure
// answers: when the system must drop work, does dropping the polluting
// cohort first keep the cache-sensitive victim inside its SLO? The
// paper's partitioning story says yes — the polluter's queries buy no
// cache benefit, so shedding them frees both CPU time and LLC space.

// OverloadOptions tunes the overload sweep.
type OverloadOptions struct {
	// Loads are rogue-tenant overload multiples (noisy-neighbor model):
	// the well-behaved cohorts keep their nominal share of estimated
	// capacity while the polluting reporting cohort offers Load × its
	// provisioned rate. Default {1, 3, 5}.
	Loads []float64
	// Arrivals is the target arrival count per run; default 320 (long
	// enough that steady state, not the warm-up transient, dominates
	// the SLO accounting).
	Arrivals int
	// Sheds are the shedding policies to sweep; default none, fair and
	// polluter. Fair and polluter-first shed from 30% aggregate queue
	// fill.
	Sheds []serve.Shed
	// Arms keeps only the named cache arms (shared / static /
	// adaptive); empty keeps all three.
	Arms []string
	// SLOMultiple sets each tenant's SLO from its isolated baseline:
	// target p99 = SLOMultiple × isolated mean (so the queueing
	// deadline is twice that). Default 15: loose enough that a
	// well-partitioned tenant at its provisioned rate sits comfortably
	// inside the target, so violations measure interference and
	// overload, not ordinary queueing noise.
	SLOMultiple float64
	// Retries is the client's attempts per query, the first included;
	// default 3, and 1 disables retries. Retries draw on serve's budget
	// of 0.3 of each tenant's first arrivals.
	Retries int
	// QueueCap bounds every tenant queue; default 16 as in FigServe.
	QueueCap int
	// Faults interposes control-plane chaos (resctrl fault injection);
	// ServeFaults adds serving-plane chaos (arrival bursts). Both
	// compose.
	Faults      *fault.Config
	ServeFaults *fault.ServeConfig
}

func (o *OverloadOptions) setDefaults() {
	if len(o.Loads) == 0 {
		o.Loads = []float64{1, 3, 5}
	}
	if o.Arrivals <= 0 {
		o.Arrivals = 320
	}
	if len(o.Sheds) == 0 {
		o.Sheds = []serve.Shed{serve.ShedNone, serve.ShedFair, serve.ShedPolluter}
	}
	if o.SLOMultiple <= 0 {
		o.SLOMultiple = 15
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
}

// OverloadRun is one (cache arm, shed policy) cell at one load point.
type OverloadRun struct {
	Arm    string
	Shed   serve.Shed
	Report *serve.Report
}

// OverloadLoad is one load point of the sweep.
type OverloadLoad struct {
	Load    float64
	RateQPS float64
	Runs    []OverloadRun
}

// OverloadResult is the FigOverload experiment.
type OverloadResult struct {
	CapacityQPS    float64
	BaselineTicks  []float64
	SecondsPerTick float64
	Groups         int
	// Victim and Polluter index the cache-sensitive OLTP cohort and the
	// streaming reporting cohort in each report's Tenants.
	Victim   int
	Polluter int
	Loads    []OverloadLoad
}

// Run returns the cell for the named (arm, shed) pair, nil if absent.
func (l *OverloadLoad) Run(arm string, shed serve.Shed) *serve.Report {
	for i := range l.Runs {
		if l.Runs[i].Arm == arm && l.Runs[i].Shed == shed {
			return l.Runs[i].Report
		}
	}
	return nil
}

// FigOverload runs the SLO-aware overload sweep that p.Overload tunes:
// the FigServe cohorts with per-tenant SLOs derived from their
// isolated baselines, client retries and circuit breakers enabled,
// driven at Loads × capacity under every (shed policy, cache arm)
// pair. Reports are bit-identical per (Params.Seed, p.Overload) —
// including under composed control-plane and serving-plane chaos.
func FigOverload(p Params) (*OverloadResult, error) {
	o := p.Overload
	o.setDefaults()
	ss, err := newServeSystem(p, o.Faults)
	if err != nil {
		return nil, err
	}
	sys, tenants := ss.sys, ss.tenants
	defer sys.DisableAdaptive()
	defer sys.DisableChaos()

	// SLOs anchor to each tenant's isolated mean: the p99 target allows
	// SLOMultiple of queueing slowdown, and clients hang up (deadline)
	// at twice that.
	secPerTick := sys.Machine.Seconds(1)
	for ti := range tenants {
		tenants[ti].SLO = o.SLOMultiple * (ss.baselines[ti] * secPerTick)
		tenants[ti].QueueCap = o.QueueCap
	}

	out := &OverloadResult{
		CapacityQPS:    ss.capacity,
		BaselineTicks:  ss.baselines,
		SecondsPerTick: secPerTick,
		Groups:         len(ss.groups),
		Victim:         0,
		Polluter:       len(tenants) - 1,
	}
	for _, load := range o.Loads {
		// The overload is polluter-driven: the reporting cohort surges to
		// load × its provisioned rate while everyone else stays nominal —
		// the only regime where shedding the right tenant can recover the
		// victim at all.
		var offered float64
		for ti := range tenants {
			r := ss.capacity * ss.shares[ti]
			if ti == out.Polluter {
				r *= load
			}
			tenants[ti].Process.Rate = r
			offered += r
		}
		point := OverloadLoad{Load: load, RateQPS: offered}
		for _, shed := range o.Sheds {
			for _, arm := range sys.adaptArms() {
				if !armSelected(o.Arms, arm.name) {
					continue
				}
				if err := arm.apply(); err != nil {
					return nil, err
				}
				cfg := serve.Config{
					Seed:    p.Seed,
					Horizon: float64(o.Arrivals) / offered,
					Tenants: tenants,
					Shed:    shed,
					Retries: o.Retries - 1,
					Faults:  o.ServeFaults,
				}
				r, err := serve.Run(sys.Engine, ss.groups, cfg)
				if err != nil {
					return nil, fmt.Errorf("overload %s/%s at %.1fx: %w", arm.name, shed, load, err)
				}
				point.Runs = append(point.Runs, OverloadRun{Arm: arm.name, Shed: shed, Report: r})
			}
			sys.DisableAdaptive()
		}
		out.Loads = append(out.Loads, point)
	}
	return out, nil
}

// armSelected filters cache arms by name; an empty filter keeps all.
func armSelected(arms []string, name string) bool {
	if len(arms) == 0 {
		return true
	}
	for _, a := range arms {
		if a == name {
			return true
		}
	}
	return false
}

// PrintOverload renders the sweep: per load point and shed policy,
// each arm's victim-tenant p99, aggregate goodput, SLO attainment and
// the per-reason drop/retry accounting.
func PrintOverload(w io.Writer, r *OverloadResult) {
	fmt.Fprintf(w, "FigOverload — SLO-aware overload control over %d dispatch groups, capacity ≈ %.0f q/s\n",
		r.Groups, r.CapacityQPS)
	fmt.Fprintln(w, "(latencies in simulated µs; victim = oltp cohort; drops split deadline/shed/breaker/queue)")
	us := func(ticks int64) float64 { return float64(ticks) * r.SecondsPerTick * 1e6 }
	for _, ld := range r.Loads {
		fmt.Fprintf(w, "\nload %.1fx (%.0f q/s offered)\n", ld.Load, ld.RateQPS)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "arm\tshed\tvictim p99 µs\tvictim SLO\tgood q/s\tSLO att\tdl\tshed\tbrk\tother\tretries\tlost")
		for _, run := range ld.Runs {
			rep := run.Report
			v := rep.Tenants[r.Victim]
			var dl, sh, brk, other int64
			for _, tr := range rep.Tenants {
				dl += tr.DropDeadline
				sh += tr.DropShed
				brk += tr.DropBreaker
				other += tr.DropQueue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.3f\t%.0f\t%.3f\t%d\t%d\t%d\t%d\t%d\t%d\n",
				run.Arm, run.Shed, us(v.P99), v.SLOAttainment,
				rep.GoodQPS, rep.SLOAttainment, dl, sh, brk, other, rep.Retries, rep.Abandoned)
		}
		tw.Flush()
	}
	fmt.Fprintln(w)
}
