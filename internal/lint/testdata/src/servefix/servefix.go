// Package servefix is a golden-test fixture pinning the serving tier
// into the determinism net: internal/serve is a taintflow sink, so an
// arrival schedule seeded from the wall clock or drawn from the
// runtime-seeded global rand is flagged even when the read hides
// behind a helper. Replaying a capacity sweep requires every arrival
// to derive from serve.Config.Seed and the virtual clock.
package servefix

import (
	"math/rand"
	"time"

	"cachepart/internal/serve"
)

// wallSeed launders a wall-clock read past the intraprocedural nondet
// check; only taintflow can follow it into the serving config.
func wallSeed() int64 {
	return time.Now().UnixNano() //lint:allow nondet fixture laundering helper for operator-facing timing
}

func launderedArrivals() serve.Config {
	return serve.Config{Seed: wallSeed()} // want "derived from time.Now (via wallSeed) reaches simulator state"
}

func jitteredRate() serve.Process {
	// Both checks fire: nondet at the draw, taintflow at the sink — an
	// arrival rate drawn from global rand never replays.
	return serve.Process{Kind: serve.ProcPoisson, Rate: rand.Float64()} // want "global math/rand.Float64 draws from a runtime-seeded source" "derived from math/rand.Float64 reaches simulator state"
}

// seededArrivals is the sanctioned shape: the whole trace — process
// draws, mix picks, per-query plans — derives from the config seed,
// so two runs with equal configs serve identical workloads.
func seededArrivals(seed int64, tenants []serve.Tenant) serve.Config {
	return serve.Config{Seed: seed, Horizon: 1e-3, Tenants: tenants} // clean: seed-derived
}
