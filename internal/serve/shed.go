package serve

import (
	"fmt"
	"math/rand"

	"cachepart/internal/engine"
)

// shed: overload-control load shedding. Under queue pressure the feed
// consults its Shed policy per arrival, before the bounded queue, so a
// deliberate rejection (DropShed) is distinct from a tail-drop
// (DropQueueFull). The polluter-first policy targets the cohort whose
// queries stream through the LLC — identified online from completion
// telemetry, the same signal internal/adapt's classifier reads from
// the MBM counters — so victims keep their tail latency while the
// polluting class absorbs the overload.

// Shed is a load-shedding policy. The zero value, ShedNone, never
// sheds.
type Shed int

const (
	// ShedNone never sheds: the bounded queues are the only limiter.
	ShedNone Shed = iota
	// ShedFair sheds uniformly at random once aggregate queue fill
	// crosses shedFill, with probability rising linearly to 1 at full
	// queues — every tenant degrades alike, the baseline
	// graceful-degradation policy.
	ShedFair
	// ShedPolluter sheds the polluting class first: arrivals classified
	// as LLC polluters are rejected outright once queue fill crosses
	// shedFill, and only past shedAllFill does it fall back to fair
	// random shedding of everyone else. Under a 3× overload driven by
	// the streaming cohort this keeps the cache-sensitive victims'
	// tails intact — degradation by choice rather than by accident.
	ShedPolluter
)

var shedNames = [...]string{ShedNone: "none", ShedFair: "fair", ShedPolluter: "polluter"}

// String names the policy as ParseShed accepts it.
func (s Shed) String() string {
	if s >= 0 && int(s) < len(shedNames) {
		return shedNames[s]
	}
	return fmt.Sprintf("Shed(%d)", int(s))
}

// ParseShed maps a policy name to its policy.
func ParseShed(name string) (Shed, error) {
	for s, n := range shedNames {
		if n == name {
			return Shed(s), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown shed policy %q (want none, fair or polluter)", name)
}

// Queue-fill fractions where shedding engages: fair shedding and
// polluter-first's polluter shedding start at shedFill; polluter-first
// spreads to everyone at shedAllFill. shedFill sits well below full
// because a surging polluter saturates the dispatch groups long before
// the combined queues look full. Both are typed so that 1-shedAllFill
// is rounded to float64 (0.09999999999999998) rather than computed
// exactly; the overload golden digest depends on that value.
const (
	shedFill    float64 = 0.3
	shedAllFill float64 = 0.9
)

// shed decides whether to reject one arrival that survived the
// circuit breaker. load is the aggregate queue fill fraction (Σ depth
// / Σ cap, in [0,1]) at the arrival tick, and polluter reports whether
// the arrival's (tenant, workload) is currently classified as an LLC
// polluter. Random draws come from rng, the feed's shed stream, in
// trace order.
func (s Shed) shed(load float64, polluter bool, rng *rand.Rand) bool {
	switch s {
	case ShedFair:
		if load < shedFill {
			return false
		}
		return rng.Float64() < (load-shedFill)/(1-shedFill)
	case ShedPolluter:
		if polluter && load >= shedFill {
			return true
		}
		if load < shedAllFill {
			return false
		}
		return rng.Float64() < (load-shedAllFill)/(1-shedAllFill)
	default:
		return false
	}
}

// shedRngSalt keys the shed rng off the run seed, independent of the
// arrival, query and overload jitter streams.
const shedRngSalt = 0x73686564 // "shed"

// polluterEWMAAlpha smooths the per-(tenant, workload) rate estimate;
// high enough to follow a phase change within a few completions, low
// enough that one outlier query does not flip the class.
const polluterEWMAAlpha = 0.3

// polluterTracker classifies each (tenant, workload) as LLC-polluting
// from per-completion DRAM telemetry (Completion.MemBytes): an EWMA of
// the per-core bytes/second each kind sustains while executing,
// compared against adapt.StreamingBandwidthFraction of the
// machine's DRAM bandwidth — the completion-granular analogue of
// internal/adapt's MBM classifier.
// All updates happen in the engine's deterministic Observe order.
type polluterTracker struct {
	threshold   float64 // per-core bytes/sec bound
	ticksPerSec float64
	groupCores  []int
	// ewma[t][k] is the smoothed per-core rate of tenant t's kind k;
	// seen marks kinds with at least one completion.
	ewma [][]float64
	seen [][]bool
}

func newPolluterTracker(tenants []Tenant, groupCores []int, threshold, ticksPerSec float64) *polluterTracker {
	pt := &polluterTracker{
		threshold:   threshold,
		ticksPerSec: ticksPerSec,
		groupCores:  groupCores,
		ewma:        make([][]float64, len(tenants)),
		seen:        make([][]bool, len(tenants)),
	}
	for ti := range tenants {
		pt.ewma[ti] = make([]float64, len(tenants[ti].Mix))
		pt.seen[ti] = make([]bool, len(tenants[ti].Mix))
	}
	return pt
}

// observe folds one completion's telemetry into its kind's rate.
func (pt *polluterTracker) observe(tenant, kind int, c engine.Completion) {
	svc := c.Service()
	if svc <= 0 {
		return
	}
	cores := pt.groupCores[c.Group]
	rate := float64(c.MemBytes) / (float64(svc) / pt.ticksPerSec) / float64(cores)
	if !pt.seen[tenant][kind] {
		pt.ewma[tenant][kind] = rate
		pt.seen[tenant][kind] = true
		return
	}
	pt.ewma[tenant][kind] = polluterEWMAAlpha*rate + (1-polluterEWMAAlpha)*pt.ewma[tenant][kind]
}

// polluter reports whether the kind's smoothed rate crosses the bound.
func (pt *polluterTracker) polluter(tenant, kind int) bool {
	return pt.seen[tenant][kind] && pt.ewma[tenant][kind] >= pt.threshold
}
