package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cachepart/internal/cachesim"
	"cachepart/internal/fault"
)

// gen: the seeded open-loop workload generator.
//
// Every arrival time and kind choice is drawn from per-tenant rngs
// seeded from Config.Seed — never the wall clock, never package-global
// rand — so the arrival trace is a pure function of the configuration
// and two runs with equal seeds are bit-identical (the repository's
// standing determinism constraint; internal/serve is a taintflow sink,
// see internal/lint).

// Process describes one tenant's arrival process.
type Process struct {
	// Kind selects the process: ProcPoisson or ProcDiurnal.
	Kind ProcessKind
	// Rate is the mean arrival rate in queries per simulated second
	// (Poisson: constant; Diurnal: the base the periods modulate).
	Rate float64
	// Periods shape the diurnal rate: rate(t) = Rate·max(0, 1+Σ aᵢ·
	// sin(2π·t/Tᵢ + φᵢ)). Several periods superimpose, e.g. a daily
	// cycle plus a weekly one scaled into simulated seconds.
	Periods []Period
}

// ProcessKind enumerates arrival processes.
type ProcessKind int

const (
	// ProcPoisson draws i.i.d. exponential inter-arrival gaps.
	ProcPoisson ProcessKind = iota
	// ProcDiurnal modulates a Poisson process with superimposed
	// sinusoidal periods via thinning.
	ProcDiurnal
)

// Period is one sinusoidal component of a diurnal rate profile.
type Period struct {
	// Seconds is the period length in simulated seconds.
	Seconds float64
	// Amplitude is the relative swing (0.5 → ±50% around the base).
	Amplitude float64
	// Phase offsets the sinusoid in radians.
	Phase float64
}

// Arrival is one generated query arrival.
type Arrival struct {
	// Seq is the arrival's index in the merged time-ordered trace; it
	// doubles as the submission tag, so completions map back.
	Seq int64
	// Tick is the arrival's virtual time.
	Tick int64
	// Tenant and Kind index Config.Tenants and the tenant's Mix.
	Tenant int
	Kind   int
	// Attempt is the client's try count for this query: 0 for the
	// original arrival, k for its k-th retry. Retries reuse the original
	// Seq (they are the same query), so (Seq, Attempt) is unique.
	Attempt int
}

// maxArrivals caps one run's generated trace; a misconfigured rate at
// a long horizon fails loudly instead of allocating without bound.
const maxArrivals = 1 << 22

// burstRngSalt keys each tenant's burst-arrival rng. Burst arrivals
// come from a stream separate from the tenant's base rng so the base
// trace is bit-identical with and without serving-plane faults.
const burstRngSalt = 3571

// GenArrivals generates the merged arrival trace of all tenants over
// [0, cfg.Horizon) seconds, sorted by (tick, tenant, per-tenant
// order), including any burst arrivals injected by cfg.Faults. The
// machine only supplies the seconds→ticks conversion.
func GenArrivals(m *cachesim.Machine, cfg Config) ([]Arrival, error) {
	var plane *fault.ServePlane
	if cfg.Faults != nil {
		var err error
		if plane, err = fault.NewServePlane(*cfg.Faults, cfg.Horizon, len(cfg.Tenants)); err != nil {
			return nil, err
		}
	}
	var all []Arrival
	for ti := range cfg.Tenants {
		t := &cfg.Tenants[ti]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ti)*7919))
		times, err := arrivalSeconds(rng, t.Process, cfg.Horizon)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", t.Name, err)
		}
		weights, total := mixWeights(t.Mix)
		for _, sec := range times {
			kind := pickKind(rng, weights, total)
			all = append(all, Arrival{Tick: m.Ticks(sec), Tenant: ti, Kind: kind})
		}
		// Burst superposition: inside each window the tenant gains an
		// extra Poisson stream at (Factor-1)× its base rate, drawn from a
		// separate seeded rng so the base sequence above is untouched.
		if bursts := plane.Bursts(ti); len(bursts) > 0 && t.Process.Rate > 0 {
			brng := rand.New(rand.NewSource(cfg.Seed ^ int64(ti+1)*burstRngSalt))
			for _, b := range bursts {
				extra := (b.Factor - 1) * t.Process.Rate
				for sec := b.Start + brng.ExpFloat64()/extra; sec < b.End && sec < cfg.Horizon; sec += brng.ExpFloat64() / extra {
					kind := pickKind(brng, weights, total)
					all = append(all, Arrival{Tick: m.Ticks(sec), Tenant: ti, Kind: kind})
				}
			}
		}
		if len(all) > maxArrivals {
			return nil, fmt.Errorf("serve: more than %d arrivals; lower the rate or horizon", maxArrivals)
		}
	}
	// Stable merge: tenants were appended in order, so equal ticks keep
	// (tenant, per-tenant order).
	sort.SliceStable(all, func(i, j int) bool { return all[i].Tick < all[j].Tick })
	for i := range all {
		all[i].Seq = int64(i)
	}
	return all, nil
}

// arrivalSeconds draws one tenant's arrival offsets over [0, horizon).
func arrivalSeconds(rng *rand.Rand, p Process, horizon float64) ([]float64, error) {
	switch p.Kind {
	case ProcPoisson:
		if p.Rate <= 0 {
			return nil, fmt.Errorf("poisson rate %v must be positive", p.Rate)
		}
		var out []float64
		for t := rng.ExpFloat64() / p.Rate; t < horizon; t += rng.ExpFloat64() / p.Rate {
			out = append(out, t)
			if len(out) > maxArrivals {
				return nil, fmt.Errorf("more than %d arrivals", maxArrivals)
			}
		}
		return out, nil
	case ProcDiurnal:
		return diurnalSeconds(rng, p, horizon)
	default:
		return nil, fmt.Errorf("unknown process kind %d", p.Kind)
	}
}

// diurnalSeconds samples the time-varying rate by thinning: candidates
// from a homogeneous process at the profile's peak rate, each kept
// with probability rate(t)/peak. Both draws come from the tenant rng,
// so the trace replays exactly.
func diurnalSeconds(rng *rand.Rand, p Process, horizon float64) ([]float64, error) {
	if p.Rate <= 0 {
		return nil, fmt.Errorf("diurnal base rate %v must be positive", p.Rate)
	}
	if len(p.Periods) == 0 {
		return nil, fmt.Errorf("diurnal process needs at least one period")
	}
	peak := 1.0
	for _, per := range p.Periods {
		if per.Seconds <= 0 {
			return nil, fmt.Errorf("period length %v must be positive", per.Seconds)
		}
		peak += math.Abs(per.Amplitude)
	}
	peakRate := p.Rate * peak
	var out []float64
	for t := rng.ExpFloat64() / peakRate; t < horizon; t += rng.ExpFloat64() / peakRate {
		factor := 1.0
		for _, per := range p.Periods {
			factor += per.Amplitude * math.Sin(2*math.Pi*t/per.Seconds+per.Phase)
		}
		if factor < 0 {
			factor = 0
		}
		if rng.Float64()*peak < factor {
			out = append(out, t)
			if len(out) > maxArrivals {
				return nil, fmt.Errorf("more than %d arrivals", maxArrivals)
			}
		}
	}
	return out, nil
}

// mixWeights folds a tenant mix into cumulative weights.
func mixWeights(mix []Workload) ([]int, int) {
	weights := make([]int, len(mix))
	total := 0
	for i, w := range mix {
		wt := w.Weight
		if wt <= 0 {
			wt = 1
		}
		total += wt
		weights[i] = total
	}
	return weights, total
}

// pickKind draws one mix entry by cumulative weight.
func pickKind(rng *rand.Rand, cum []int, total int) int {
	if len(cum) <= 1 {
		return 0
	}
	n := rng.Intn(total)
	for i, c := range cum {
		if n < c {
			return i
		}
	}
	return len(cum) - 1
}

// querySeed seeds the per-execution parameter stream of one arrival.
// Mixing the global sequence number keeps every query's parameters
// independent while remaining a pure function of (seed, trace).
func querySeed(seed int64, a Arrival) int64 {
	return seed ^ (a.Seq+1)*0x5851F42D4C957F2D
}
