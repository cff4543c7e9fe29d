package serve

import (
	"fmt"

	"cachepart/internal/engine"
)

// Tenant is one cohort of users sharing an arrival process, a query
// mix, and a bounded admission queue.
type Tenant struct {
	Name    string
	Process Process
	// Mix lists the tenant's query kinds with relative weights; each
	// arrival draws one kind from the mix.
	Mix []Workload
	// QueueCap bounds the tenant's FIFO; 0 uses DefaultQueueCap.
	QueueCap int
	// SLO is the tenant's p99 latency target in simulated seconds. A
	// completion slower than it is an SLO violation: it does not count
	// as good, and it feeds the tenant's circuit breaker. A query still
	// queued 2×SLO after its attempt arrived is dropped with
	// DropDeadline. 0 counts every completion as good and opts the
	// tenant out of the breaker and the deadline.
	SLO float64
	// BaselineTicks is the tenant's isolated mixture-mean service time
	// (from calibration), the denominator of the slowdown metric; 0
	// leaves slowdown unreported.
	BaselineTicks float64
}

// DefaultQueueCap bounds a tenant queue when Tenant.QueueCap is 0.
const DefaultQueueCap = 64

func (t *Tenant) queueCap() int {
	if t.QueueCap > 0 {
		return t.QueueCap
	}
	return DefaultQueueCap
}

// Workload is one query kind in a tenant's mix.
type Workload struct {
	Name   string
	Weight int
	// Instances holds one engine.Query per core group. Queries that
	// carry per-execution scratch state (aggregation tables, join bit
	// vectors) must not run concurrently on two groups, so each group
	// gets its own instance; stateless queries may alias one value
	// across all slots.
	Instances []engine.Query
	// Class is the workload's CLOS affinity key for the dispatcher:
	// queries with equal Class share a cache allocation, so
	// dispatching them back to back on one group elides the mask
	// reprogramming cost. The value is opaque to the dispatcher;
	// callers typically use the dominant core.CUID of the query's
	// phases.
	Class int
}

// validate checks a configuration's tenants against the group count.
func validateTenants(tenants []Tenant, groups int) error {
	if len(tenants) == 0 {
		return fmt.Errorf("serve: no tenants")
	}
	for ti := range tenants {
		t := &tenants[ti]
		if len(t.Mix) == 0 {
			return fmt.Errorf("serve: tenant %q has no workloads", t.Name)
		}
		for wi := range t.Mix {
			w := &t.Mix[wi]
			if len(w.Instances) != groups {
				return fmt.Errorf("serve: tenant %q workload %q has %d instances for %d groups",
					t.Name, w.Name, len(w.Instances), groups)
			}
			for _, q := range w.Instances {
				if q == nil {
					return fmt.Errorf("serve: tenant %q workload %q has a nil instance", t.Name, w.Name)
				}
			}
		}
	}
	return nil
}
