package harness

import (
	"fmt"

	"cachepart/internal/cat"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/resctrl"
	"cachepart/internal/workload"
)

// WayPoint is one sample of an LLC-size sweep.
type WayPoint struct {
	Ways    int
	LLCMiB  float64 // available LLC in (scaled-back) paper MiB
	Measure Measure
	Norm    float64 // throughput normalized to the sweep's best
}

// GroupSeries is one curve of Figure 5/6: a parameter value (paper
// nominal) and its way sweep.
type GroupSeries struct {
	Label   string
	Nominal int64
	Points  []WayPoint
}

// CurveSet is one panel: a data-set configuration with its curves.
type CurveSet struct {
	Label  string
	Series []GroupSeries
}

// sweepWays measures a query across the way limits and normalizes.
// The paper normalizes to the throughput with the entire cache, which
// is the maximum across the sweep.
func (s *System) sweepWays(q engine.Query, cores []int) ([]WayPoint, error) {
	p := s.Params
	points := make([]WayPoint, 0, len(p.Ways))
	for _, w := range p.Ways {
		if err := s.Engine.LimitWays(w); err != nil {
			return nil, err
		}
		m, err := s.RunIsolated(q, cores)
		if err != nil {
			return nil, err
		}
		// Report the x-axis in unscaled paper MiB so figures carry the
		// paper's labels at any scale.
		paperMiB := 55.0 * float64(w) / 20.0
		points = append(points, WayPoint{Ways: w, LLCMiB: paperMiB, Measure: m})
	}
	if err := s.Engine.LimitWays(0); err != nil {
		return nil, err
	}
	best := 0.0
	for _, pt := range points {
		if pt.Measure.Throughput > best {
			best = pt.Measure.Throughput
		}
	}
	if best > 0 {
		for i := range points {
			points[i].Norm = points[i].Measure.Throughput / best
		}
	}
	return points, nil
}

// Fig4Result is the Figure 4 scan sweep and the scheme Section V-B
// derives from it.
type Fig4Result struct {
	Points []WayPoint
	Scheme DeriveResult
}

// Fig4 reproduces Figure 4: normalized throughput of the column scan
// at varying LLC sizes. Expected shape: flat — the operator is hardly
// sensitive to the cache size. The scheme is derived from the sweep.
func Fig4(p Params) (Fig4Result, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return Fig4Result{}, err
	}
	q1, err := NewQ1(sys)
	if err != nil {
		return Fig4Result{}, err
	}
	pts, err := sys.sweepWays(q1, sys.AllCores())
	if err != nil {
		return Fig4Result{}, err
	}
	scheme, err := derive(pts)
	if err != nil {
		return Fig4Result{}, err
	}
	return Fig4Result{Points: pts, Scheme: scheme}, nil
}

// DeriveResult is the automated Section V-B: the class the scan's
// curve falls in, the polluting mask of the scheme derived from it,
// and the resctrl script that applies that scheme.
type DeriveResult struct {
	CUID   core.CUID
	Mask   cat.WayMask
	Script string
}

// derive classifies a Figure 4 scan sweep and derives the paper
// machine's partitioning scheme (55 MiB, 20 ways) from it.
func derive(pts []WayPoint) (DeriveResult, error) {
	curve := make([]core.CurvePoint, 0, len(pts))
	for _, pt := range pts {
		curve = append(curve, core.CurvePoint{Ways: pt.Ways, Throughput: pt.Norm})
	}
	cuid, err := core.ClassifyCurve(curve, 20)
	if err != nil {
		return DeriveResult{}, err
	}
	pol, err := core.DeriveScheme(55<<20, 20, [][]core.CurvePoint{curve})
	if err != nil {
		return DeriveResult{}, err
	}
	pol.Enabled = true
	script, err := resctrl.Script(pol)
	if err != nil {
		return DeriveResult{}, err
	}
	return DeriveResult{CUID: cuid, Mask: pol.MaskFor(core.Polluting, core.Footprint{}), Script: script}, nil
}

// fig5Dictionaries returns the paper's three dictionary
// configurations: 10^6, 10^7, 10^8 distinct values = 4, 40, 400 MiB.
func fig5Dictionaries() []int64 { return []int64{1_000_000, 10_000_000, 100_000_000} }

// fig5Groups returns the paper's group counts 10^2..10^6.
func fig5Groups() []int64 { return []int64{100, 1_000, 10_000, 100_000, 1_000_000} }

// Fig5 reproduces Figure 5 (a, b, c): normalized throughput of
// aggregation with grouping at varying LLC sizes, for the three
// dictionary sizes and five group counts.
func Fig5(p Params) ([]CurveSet, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	var sets []CurveSet
	for _, distinct := range p.dictSweep() {
		set := CurveSet{Label: fmt.Sprintf("%d MiB dictionary", 4*distinct/1_000_000)}
		for _, groups := range p.groupSweep() {
			q2, err := NewQ2(sys, distinct, groups)
			if err != nil {
				return nil, err
			}
			pts, err := sys.sweepWays(q2, sys.AllCores())
			if err != nil {
				return nil, err
			}
			set.Series = append(set.Series, GroupSeries{
				Label:   fmt.Sprintf("G=%s", sciLabel(groups)),
				Nominal: groups,
				Points:  pts,
			})
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// fig6Keys returns the paper's primary-key counts 10^6..10^9.
func fig6Keys() []int64 { return []int64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000} }

// Fig6 reproduces Figure 6: normalized throughput of the foreign-key
// join at varying LLC sizes and primary-key counts. Expected shape:
// sensitive only around 10^8 keys, when the bit vector is comparable
// to the LLC.
func Fig6(p Params) ([]GroupSeries, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	var out []GroupSeries
	for _, keys := range p.keySweep() {
		q3, err := NewQ3(sys, keys)
		if err != nil {
			return nil, err
		}
		pts, err := sys.sweepWays(q3, sys.AllCores())
		if err != nil {
			return nil, err
		}
		out = append(out, GroupSeries{
			Label:   fmt.Sprintf("P=%s", sciLabel(keys)),
			Nominal: keys,
			Points:  pts,
		})
	}
	return out, nil
}

// NewQ1 builds the Query 1 data set in the system's space.
func NewQ1(sys *System) (*workload.ScanQuery, error) {
	return workload.NewQ1(sys.Space, sys.Rng, sys.Params.Q1Spec())
}

// NewQ2 builds a Query 2 data set for paper-nominal distinct values
// and groups.
func NewQ2(sys *System, nominalDistinctV, nominalGroups int64) (*workload.AggQuery, error) {
	return workload.NewQ2(sys.Space, sys.Rng, sys.Params.Q2Spec(nominalDistinctV, nominalGroups))
}

// NewQ3 builds a Query 3 data set for a paper-nominal key count.
func NewQ3(sys *System, nominalKeys int64) (*workload.JoinQuery, error) {
	return workload.NewQ3(sys.Space, sys.Rng, sys.Params.Q3Spec(nominalKeys))
}

// sciLabel renders 100000 as "1e5" for series labels.
func sciLabel(n int64) string {
	exp := 0
	v := n
	for v >= 10 && v%10 == 0 {
		v /= 10
		exp++
	}
	if v == 1 && exp > 0 {
		return fmt.Sprintf("1e%d", exp)
	}
	return fmt.Sprintf("%d", n)
}
