package harness

import (
	"math/rand"

	"cachepart/internal/adapt"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/memory"
)

// EnableAdaptive attaches an online feedback controller (internal/
// adapt) to the system's engine. While attached, runs ignore the
// static CUID→mask policy and let the controller program per-stream
// masks from CMT/MBM telemetry. The returned controller exposes the
// transition log for inspection. adapt.Config carries no settings and
// the error is always nil; both remain only because the repository
// benchmark compiles against this signature.
func (s *System) EnableAdaptive(adapt.Config) (*adapt.Controller, error) {
	return adapt.Attach(s.Engine), nil
}

// DisableAdaptive detaches the controller, restoring the static
// policy path.
func (s *System) DisableAdaptive() { s.Engine.DetachController() }

// unannotated erases a query's cache-usage annotations: every phase
// reports the Sensitive CUID and an empty footprint, the
// shape of a workload whose operators were never classified. It is the
// one way to run the controller blind. Prewarm regions are forwarded
// so measurement windows stay comparable.
type unannotated struct {
	q engine.Query
}

// Unannotated wraps a query with its CUID annotations stripped.
func Unannotated(q engine.Query) engine.Query {
	if pw, ok := q.(engine.Prewarmer); ok {
		return &unannotatedPrewarmer{unannotated{q: q}, pw}
	}
	return &unannotated{q: q}
}

func (u *unannotated) Name() string { return u.q.Name() }

func (u *unannotated) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	phases, err := u.q.Plan(cores, rng)
	if err != nil {
		return nil, err
	}
	for i := range phases {
		phases[i].CUID = core.Sensitive
		phases[i].Footprint = core.Footprint{}
	}
	return phases, nil
}

// unannotatedPrewarmer additionally forwards PrewarmRegions.
type unannotatedPrewarmer struct {
	unannotated
	pw engine.Prewarmer
}

func (u *unannotatedPrewarmer) PrewarmRegions(cores int) []memory.Region {
	return u.pw.PrewarmRegions(cores)
}

// AdaptResult is the adaptive-controller experiment: the Figure 9(b)
// co-run (Query 1 scan ∥ Query 2 aggregation, 40 MiB dictionary)
// under three arms — no partitioning, the paper's static scheme, and
// the online controller — once with correct CUID annotations and once
// with annotations stripped, where only the controller can tell the
// scan from the aggregation.
type AdaptResult struct {
	Annotated PairRow
	Blind     PairRow
}

// adaptArms builds the three experiment arms over a system. The
// static policy stays disabled in the adaptive arm: whatever the
// controller achieves it achieves from telemetry (plus whatever
// annotations the queries carry).
func (s *System) adaptArms() []arm {
	return []arm{
		{"shared", func() error {
			s.DisableAdaptive()
			return s.SetPartitioning(false)
		}},
		{"static", func() error {
			s.DisableAdaptive()
			return s.SetPartitioning(true)
		}},
		{"adaptive", func() error {
			if err := s.SetPartitioning(false); err != nil {
				return err
			}
			adapt.Attach(s.Engine)
			return nil
		}},
	}
}

// FigAdaptDistinct and FigAdaptGroups are the Figure 9(b) co-run
// parameters the adaptive experiment reuses: the 40 MiB dictionary and
// a mid-sweep group count where the paper's static scheme helps most.
const (
	FigAdaptDistinct int64 = 10_000_000
	FigAdaptGroups   int64 = 100_000
)

// FigAdapt runs the adaptive-controller experiment at the given
// parameters.
func FigAdapt(p Params) (AdaptResult, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return AdaptResult{}, err
	}
	defer sys.DisableAdaptive()
	q1, err := NewQ1(sys)
	if err != nil {
		return AdaptResult{}, err
	}
	q2, err := NewQ2(sys, FigAdaptDistinct, FigAdaptGroups)
	if err != nil {
		return AdaptResult{}, err
	}
	var out AdaptResult
	a, b := sys.SplitCores()

	sys.DisableAdaptive()
	annotated, err := sys.runPairArms("annotated", q1, a, q2, b, sys.adaptArms())
	if err != nil {
		return AdaptResult{}, err
	}
	out.Annotated = annotated

	sys.DisableAdaptive()
	blind, err := sys.runPairArms("blind", Unannotated(q1), a, Unannotated(q2), b, sys.adaptArms())
	if err != nil {
		return AdaptResult{}, err
	}
	out.Blind = blind
	return out, nil
}
