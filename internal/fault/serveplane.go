package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// serveplane: seeded fault injection for the serving plane. Where
// fault.Plane breaks the resctrl control plane, ServePlane breaks the
// workload itself: arrival bursts, a rogue tenant's rate surging for a
// window (the shape of a retry storm or a misbehaving client). Bursts
// compose freely with the control-plane chaos — a serving run can take
// resctrl EBUSYs and a 4× arrival surge in the same replay.
//
// Determinism: every window is precomputed from ServeConfig.Seed at
// plane construction, in tenant order, so the schedule is a pure
// function of (config, horizon, tenants) and two runs with equal fault
// seeds see identical chaos. Burst arrivals are drawn by the serving
// generator from separate per-tenant rngs, so the base trace is
// bit-identical with and without faults.

// ServeConfig describes serving-plane chaos. The zero value injects
// nothing. Expected counts may be fractional: the fractional part is
// one extra window with that probability.
type ServeConfig struct {
	// Seed drives the window schedule, independent of the run seed and
	// the control-plane fault seed.
	Seed int64

	// Bursts is the expected number of arrival-burst windows per tenant
	// over the horizon.
	Bursts float64
	// BurstFactor is the tenant's rate multiplier inside a burst window
	// (2.0 = arrivals at twice the configured rate), finite and above 1.
	// 0 uses DefaultBurstFactor.
	BurstFactor float64
}

// Serving-plane defaults: a burst triples the tenant's rate, and a
// window spans burstSpan of the horizon on average.
const (
	DefaultBurstFactor = 3.0
	burstSpan          = 0.05
)

// Validate checks the configuration.
func (c ServeConfig) Validate() error {
	if c.Bursts < 0 {
		return fmt.Errorf("fault: serve Bursts %v must be >= 0", c.Bursts)
	}
	if c.BurstFactor != 0 && !(c.BurstFactor > 1 && !math.IsInf(c.BurstFactor, 1)) {
		return fmt.Errorf("fault: serve BurstFactor %v must be 0 (the default) or a finite factor > 1", c.BurstFactor)
	}
	return nil
}

// Burst is one arrival-surge window, in simulated seconds relative to
// the run start.
type Burst struct {
	Start, End float64
	// Factor is the rate multiplier inside the window.
	Factor float64
}

// ServePlane is the precomputed serving-plane chaos schedule.
type ServePlane struct {
	bursts [][]Burst // per tenant, sorted by Start
}

// servePlaneSalt keys the window rng off the fault seed so the
// schedule stream is independent of any other seeded stream.
const servePlaneSalt = 0x73727620 // "srv "

// NewServePlane precomputes the chaos schedule for a run over horizon
// simulated seconds with the given tenant count.
func NewServePlane(cfg ServeConfig, horizon float64, tenants int) (*ServePlane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	factor := cfg.BurstFactor
	if factor == 0 {
		factor = DefaultBurstFactor
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ servePlaneSalt))
	p := &ServePlane{bursts: make([][]Burst, tenants)}
	for t := 0; t < tenants; t++ {
		for i, n := 0, windowCount(rng, cfg.Bursts); i < n; i++ {
			start := rng.Float64() * horizon
			end := start + burstSpan*horizon*(0.5+rng.Float64())
			if end > horizon {
				end = horizon
			}
			p.bursts[t] = append(p.bursts[t], Burst{Start: start, End: end, Factor: factor})
		}
		sort.Slice(p.bursts[t], func(i, j int) bool { return p.bursts[t][i].Start < p.bursts[t][j].Start })
	}
	return p, nil
}

// windowCount realises a fractional expected count: the integer part
// plus one more with the fractional probability.
func windowCount(rng *rand.Rand, expect float64) int {
	n := int(expect)
	if rng.Float64() < expect-float64(n) {
		n++
	}
	return n
}

// Bursts returns the tenant's burst windows, sorted by start.
func (p *ServePlane) Bursts(tenant int) []Burst {
	if p == nil || tenant >= len(p.bursts) {
		return nil
	}
	return p.bursts[tenant]
}
