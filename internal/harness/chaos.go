package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cachepart/internal/fault"
)

// EnableChaos interposes a seeded fault injector (internal/fault)
// between the engine and its resctrl mount. While enabled, schemata
// writes, task moves, group creation, scheduling and monitoring reads
// fail with the configured probabilities; the engine retries, degrades
// and keeps running. Call before EnableAdaptive so the controller's
// writes route through the injector too; undo with DisableChaos.
func (s *System) EnableChaos(cfg fault.Config) (*fault.Plane, error) {
	pl, err := fault.Wrap(s.Engine.ControlPlane(), cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Engine.SetControlPlane(pl); err != nil {
		return nil, err
	}
	return pl, nil
}

// DisableChaos unwraps the fault injector, restoring the direct mount.
// A no-op when chaos was never enabled.
func (s *System) DisableChaos() {
	if pl, ok := s.Engine.ControlPlane().(*fault.Plane); ok {
		// The wrapped plane is never nil, so the error cannot fire.
		if err := s.Engine.SetControlPlane(pl.Inner()); err != nil {
			panic(err)
		}
	}
}

// ChaosPoint is one fault rate of the chaos sweep: the partitioned
// co-run's two measures, normalized against the fault-free partitioned
// baseline, plus the run's fault accounting.
type ChaosPoint struct {
	Rate float64
	A, B Measure
	// NormA and NormB are throughputs relative to the same co-run with
	// no faults injected — 1.0 means injection cost nothing.
	NormA, NormB float64
	// Retries and Degraded sum both streams' counters; Injected is the
	// injector's total failed calls (including breaker repeats).
	Retries  int64
	Degraded int64
	Injected int64
}

// ChaosResult is the chaos experiment: the fault-free baseline co-run
// and one point per swept fault rate.
type ChaosResult struct {
	BaseA, BaseB Measure
	Points       []ChaosPoint
}

// figChaosRates returns the default fault-rate sweep: from one failure
// per thousand control-plane calls up to every call failing.
func figChaosRates() []float64 { return []float64{0.001, 0.01, 0.05, 0.2, 1.0} }

// FigChaos sweeps control-plane fault rates over the Figure 9(b)
// co-run (scan ∥ aggregation, partitioned) and reports throughput
// against the fault-free baseline alongside retry/degradation counts.
// The experiment demonstrates the robustness contract: at every rate
// the run completes and returns correct results; what injection costs
// is isolation (degraded streams share the full cache) and retry
// cycles, both of which the result quantifies.
func FigChaos(p Params) (ChaosResult, error) {
	return figChaosAt(p, figChaosRates())
}

// figChaosAt runs the chaos sweep over an explicit rate list.
func figChaosAt(p Params, rates []float64) (ChaosResult, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return ChaosResult{}, err
	}
	defer sys.DisableChaos()
	q1, err := NewQ1(sys)
	if err != nil {
		return ChaosResult{}, err
	}
	q2, err := NewQ2(sys, FigAdaptDistinct, FigAdaptGroups)
	if err != nil {
		return ChaosResult{}, err
	}
	if err := sys.SetPartitioning(true); err != nil {
		return ChaosResult{}, err
	}
	ca, cb := sys.SplitCores()

	baseA, baseB, err := sys.RunPair(q1, ca, q2, cb)
	if err != nil {
		return ChaosResult{}, err
	}
	out := ChaosResult{BaseA: baseA, BaseB: baseB}

	for _, rate := range rates {
		pl, err := sys.EnableChaos(fault.Uniform(rate, p.Seed))
		if err != nil {
			return ChaosResult{}, err
		}
		ma, mb, err := sys.RunPair(q1, ca, q2, cb)
		sys.DisableChaos()
		if err != nil {
			return ChaosResult{}, fmt.Errorf("chaos at rate %v: %w", rate, err)
		}
		out.Points = append(out.Points, ChaosPoint{
			Rate:     rate,
			A:        ma,
			B:        mb,
			NormA:    ratio(ma.Throughput, baseA.Throughput),
			NormB:    ratio(mb.Throughput, baseB.Throughput),
			Retries:  ma.Retries + mb.Retries,
			Degraded: ma.Degraded + mb.Degraded,
			Injected: pl.Stats().Injected,
		})
	}
	return out, nil
}

// PrintChaos renders the chaos sweep as a table.
func PrintChaos(w io.Writer, r ChaosResult) {
	fmt.Fprintln(w, "Chaos — scan ∥ aggregation, partitioned, under control-plane fault injection")
	fmt.Fprintln(w, "(norm vs. fault-free partitioned co-run; no run may error at any rate)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rate\tnormA\tnormB\tretries\tdegraded\tinjected")
	for _, pt := range r.Points {
		fmt.Fprintf(tw, "%.3f\t%.3f\t%.3f\t%d\t%d\t%d\n",
			pt.Rate, pt.NormA, pt.NormB, pt.Retries, pt.Degraded, pt.Injected)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
