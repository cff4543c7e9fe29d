// Package overloadfix is a golden-test fixture pinning the overload
// control layer into the determinism net: retry counts, SLOs and
// serving-plane burst faults are all simulator state inside the
// internal/serve and internal/fault sinks, so a wall-clock SLO or a
// global-rand retry count is flagged even when the nondeterministic
// read hides behind a laundering helper. Replaying a retry storm
// requires every overload-control value to derive from the run seed
// and the virtual clock.
package overloadfix

import (
	"math/rand"
	"time"

	"cachepart/internal/fault"
	"cachepart/internal/serve"
)

// wallSLO launders a wall-clock read past the intraprocedural nondet
// check; only taintflow can follow it into the tenant's SLO.
func wallSLO() float64 {
	return float64(time.Now().UnixNano()) * 1e-9 //lint:allow nondet fixture laundering helper for operator-facing timing
}

func launderedSLO() serve.Tenant {
	// An SLO measured off the host clock makes deadline and breaker
	// accounting differ between two replays of the same trace.
	return serve.Tenant{Name: "oltp", SLO: wallSLO()} // want "derived from time.Now (via wallSLO) reaches simulator state"
}

func globalRandRetries() serve.Config {
	// Both checks fire: nondet at the draw, taintflow at the sink — a
	// retry storm sized by global rand never replays bit-identically.
	return serve.Config{Retries: rand.Intn(4)} // want "global math/rand.Intn draws from a runtime-seeded source" "derived from math/rand.Intn reaches simulator state"
}

// clockBurstSeed launders the wall clock toward the serving-plane
// chaos schedule.
func clockBurstSeed() int64 {
	return time.Now().UnixNano() //lint:allow nondet fixture laundering helper for operator-facing timing
}

func launderedBursts() fault.ServeConfig {
	return fault.ServeConfig{Seed: clockBurstSeed(), Bursts: 1} // want "derived from time.Now (via clockBurstSeed) reaches simulator state"
}

// seededOverload is the sanctioned shape: the shed policy and retry
// count are plain configuration, and the burst schedule derives from
// the config seed, so two runs with equal configs shed, trip and
// retry identically.
func seededOverload(seed int64, tenants []serve.Tenant) serve.Config {
	return serve.Config{
		Seed:    seed,
		Tenants: tenants,
		Shed:    serve.ShedPolluter,
		Retries: 2,
		Faults:  &fault.ServeConfig{Seed: seed * 31, Bursts: 1}, // clean: seed-derived
	}
}
