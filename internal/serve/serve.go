// Package serve is a deterministic open-loop multi-tenant serving
// tier over the simulation engine: a seeded workload generator
// (Poisson / multi-period diurnal), bounded per-tenant queues with
// deterministic drop accounting, a CLOS-aware dispatcher onto disjoint
// core groups, and a virtual-time
// metrics layer (throughput, p50/p99/p999 latency in ticks, queue
// depth, drops, per-tenant slowdown and Jain fairness).
//
// The determinism contract matches the rest of the repository: every
// random draw comes from rngs seeded by Config.Seed, time means the
// machine's virtual tick clock, and a run's Report is a bit-identical
// function of (Config, engine state) — including under control-plane
// fault injection per (run-seed, fault-seed). DESIGN.md §12 documents
// the architecture.
package serve

import (
	"fmt"

	"cachepart/internal/engine"
	"cachepart/internal/fault"
)

// Config describes one serving run.
type Config struct {
	// Seed drives every random stream: per-tenant arrival rngs and
	// per-query parameter rngs.
	Seed int64
	// Horizon is the arrival window in simulated seconds; queries
	// arriving in [0, Horizon) are all served to completion (the run
	// drains past the horizon), so percentiles cover every admitted
	// query.
	Horizon float64
	Tenants []Tenant

	// Overload control (DESIGN.md §13), off in the zero value. Shed is
	// the load-shedding policy; Retries is how many times a client
	// retries a dropped query. Deadlines and circuit breakers follow
	// each Tenant.SLO.
	Shed    Shed
	Retries int
	// Faults enables serving-plane chaos: seeded arrival bursts (see
	// fault.ServeConfig). nil injects nothing.
	Faults *fault.ServeConfig
}

// Run executes one serving run on the engine's machine: groups are
// disjoint core sets (one dispatch slot each, sharing the LLC), and
// every tenant workload must provide one query instance per group.
func Run(e *engine.Engine, groups [][]int, cfg Config) (*Report, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("serve: horizon %v must be positive", cfg.Horizon)
	}
	if err := validateTenants(cfg.Tenants, len(groups)); err != nil {
		return nil, err
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("serve: retries %d must be >= 0", cfg.Retries)
	}
	if cfg.Shed < ShedNone || cfg.Shed > ShedPolluter {
		return nil, fmt.Errorf("serve: unknown shed policy %v", cfg.Shed)
	}
	m := e.Machine()
	arrivals, err := GenArrivals(m, cfg)
	if err != nil {
		return nil, err
	}
	groupCores := make([]int, len(groups))
	for gi, cores := range groups {
		groupCores[gi] = len(cores)
	}
	f := newFeed(&cfg, m, arrivals, groupCores)

	// Prewarm each workload's shared data (dictionaries, tables, space
	// directories) once; instances of one workload alias the same
	// backing data, so the group-0 instance stands in for all.
	var prewarm []engine.Query
	for ti := range cfg.Tenants {
		for wi := range cfg.Tenants[ti].Mix {
			prewarm = append(prewarm, cfg.Tenants[ti].Mix[wi].Instances[0])
		}
	}

	res, err := e.RunOpenLoop(groups, f, engine.OpenLoopOptions{Prewarm: prewarm})
	if err != nil {
		return nil, err
	}
	if err := f.checkDrained(); err != nil {
		return nil, err
	}
	return buildReport(&cfg, m.Ticks(cfg.Horizon), float64(m.Ticks(1)), f, res), nil
}
