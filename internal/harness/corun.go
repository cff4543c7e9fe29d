package harness

import (
	"fmt"

	"cachepart/internal/engine"
)

// PairArm is one configuration of a two-query co-run experiment.
type PairArm struct {
	Name  string
	A, B  Measure
	NormA float64 // A's throughput relative to its isolated run
	NormB float64
}

// PairRow is one x-axis point of a co-run figure: the two queries'
// isolated baselines and every experiment arm.
type PairRow struct {
	Label        string
	NameA, NameB string
	IsoA, IsoB   Measure
	Arms         []PairArm
}

// Arm returns the named arm, for tests and printers.
func (r PairRow) Arm(name string) (PairArm, bool) {
	for _, a := range r.Arms {
		if a.Name == name {
			return a, true
		}
	}
	return PairArm{}, false
}

// Fig9Panel is one dictionary configuration of Figure 9.
type Fig9Panel struct {
	Label string
	Rows  []PairRow
}

// arm is one experiment configuration: apply programs it on the system
// before the arm's co-run.
type arm struct {
	name  string
	apply func() error
}

// partitionArms are the paper's two arms: the shared cache, and the
// static scheme.
func (s *System) partitionArms() []arm {
	return []arm{
		{"shared", func() error { return s.SetPartitioning(false) }},
		{"partitioned", func() error { return s.SetPartitioning(true) }},
	}
}

// runPairArms measures the isolated baselines and each arm of a query
// pair. The two queries run on the disjoint core sets ca and cb, as
// the engine pins co-running statements; isolated baselines use the
// same cores so normalization isolates cache and bandwidth
// interference.
func (s *System) runPairArms(label string, qa engine.Query, ca []int, qb engine.Query, cb []int, arms []arm) (PairRow, error) {
	if err := s.SetPartitioning(false); err != nil {
		return PairRow{}, err
	}
	isoA, err := s.RunIsolated(qa, ca)
	if err != nil {
		return PairRow{}, err
	}
	isoB, err := s.RunIsolated(qb, cb)
	if err != nil {
		return PairRow{}, err
	}
	row := PairRow{
		Label: label,
		NameA: qa.Name(), NameB: qb.Name(),
		IsoA: isoA, IsoB: isoB,
	}
	basePolicy := s.Engine.Policy()
	for _, arm := range arms {
		if err := s.Engine.SetPolicy(basePolicy); err != nil {
			return PairRow{}, err
		}
		if err := arm.apply(); err != nil {
			return PairRow{}, err
		}
		ma, mb, err := s.RunPair(qa, ca, qb, cb)
		if err != nil {
			return PairRow{}, err
		}
		row.Arms = append(row.Arms, PairArm{
			Name:  arm.name,
			A:     ma,
			B:     mb,
			NormA: ratio(ma.Throughput, isoA.Throughput),
			NormB: ratio(mb.Throughput, isoB.Throughput),
		})
	}
	if err := s.Engine.SetPolicy(basePolicy); err != nil {
		return PairRow{}, err
	}
	return row, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig9 reproduces Figure 9 (a, b, c): Query 1 (column scan) and
// Query 2 (aggregation) executed concurrently, for the three
// dictionary sizes and the group-count sweep, with partitioning
// disabled and enabled. With partitioning the scan is restricted to
// 10% of the LLC and the aggregation keeps 100%.
func Fig9(p Params) ([]Fig9Panel, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	q1, err := NewQ1(sys)
	if err != nil {
		return nil, err
	}
	a, b := sys.SplitCores()
	var panels []Fig9Panel
	for _, distinct := range p.dictSweep() {
		panel := Fig9Panel{Label: fmt.Sprintf("%d MiB dictionary", 4*distinct/1_000_000)}
		for _, groups := range p.groupSweep() {
			q2, err := NewQ2(sys, distinct, groups)
			if err != nil {
				return nil, err
			}
			row, err := sys.runPairArms(fmt.Sprintf("G=%s", sciLabel(groups)), q1, a, q2, b, sys.partitionArms())
			if err != nil {
				return nil, err
			}
			panel.Rows = append(panel.Rows, row)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// fig10Keys returns the two primary-key counts of Figure 10.
func fig10Keys() []int64 { return []int64{1_000_000, 100_000_000} }

// Fig10 reproduces Figure 10 (a, b): Query 2 (aggregation, 40 MiB
// dictionary) and Query 3 (foreign-key join) executed concurrently for
// 10^6 and 10^8 primary keys, comparing three configurations: no
// partitioning, join restricted to 10% of the LLC, and join
// restricted to 60%.
func Fig10(p Params) ([]PairRow, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	a, b := sys.SplitCores()
	var rows []PairRow
	keys10 := fig10Keys()
	if len(p.KeySweep) > 0 {
		keys10 = p.KeySweep
	}
	for _, keys := range keys10 {
		q3, err := NewQ3(sys, keys)
		if err != nil {
			return nil, err
		}
		for _, groups := range p.groupSweep() {
			q2, err := NewQ2(sys, 10_000_000, groups)
			if err != nil {
				return nil, err
			}
			row, err := sys.runPairArms(
				fmt.Sprintf("P=%s G=%s", sciLabel(keys), sciLabel(groups)), q2, a, q3, b,
				[]arm{
					{"shared", func() error { return sys.SetPartitioning(false) }},
					{"join10", func() error { return sys.setJoinFraction(0.10) }},
					{"join60", func() error { return sys.setJoinFraction(0.60) }},
				})
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// setJoinFraction forces the Depends class to a fixed LLC fraction by
// collapsing the bit-vector heuristic band.
func (sys *System) setJoinFraction(fraction float64) error {
	pol := sys.Engine.Policy()
	pol.Enabled = true
	if fraction >= 0.5 {
		// Treat every join as cache-sensitive: the 60% slice.
		pol.DependsLargeFraction = fraction
		pol.SensitiveLo = 0
		pol.SensitiveHi = 1e18
	} else {
		// Treat every join as polluting: the small slice. Pushing the
		// band far beyond any real bit vector disables the heuristic.
		pol.PollutingFraction = fraction
		pol.SensitiveLo = 1e15
		pol.SensitiveHi = 1e15
	}
	return sys.Engine.SetPolicy(pol)
}
