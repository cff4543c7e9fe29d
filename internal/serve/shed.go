package serve

import (
	"fmt"
	"math/rand"

	"cachepart/internal/engine"
)

// shed: overload-control load shedding. Under queue pressure the feed
// consults a ShedPolicy per arrival, before the bounded queue, so a
// deliberate rejection (DropShed) is distinct from a tail-drop
// (DropQueueFull). The polluter-first policy targets the cohort whose
// queries stream through the LLC — identified online from completion
// telemetry, the same signal internal/adapt's classifier reads from
// the MBM counters — so victims keep their tail latency while the
// polluting class absorbs the overload.

// ShedPolicy decides, per arrival, whether to deliberately reject a
// query under load. Shed is called once per arrival that survived the
// circuit breaker, in trace order; load is the aggregate queue fill
// fraction (Σ depth / Σ cap, in [0,1]) at the arrival tick, and
// polluter reports whether the arrival's (tenant, workload) is
// currently classified as an LLC polluter. Implementations draw any
// randomness from the rng seeded in Init, never package-global state.
type ShedPolicy interface {
	Name() string
	// Init is called once before each run with the tenant count and the
	// run seed, so a policy value can be reused across runs and still
	// replay bit-identically.
	Init(tenants int, seed int64)
	Shed(a Arrival, load float64, polluter bool) bool
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

// ShedNone never sheds: the bounded queues are the only limiter.
type ShedNone struct{}

// Name implements ShedPolicy.
func (ShedNone) Name() string { return "none" }

// Init implements ShedPolicy.
func (ShedNone) Init(int, int64) {}

// Shed implements ShedPolicy.
func (ShedNone) Shed(Arrival, float64, bool) bool { return false }

// ShedFair sheds uniformly at random once aggregate queue fill crosses
// shedFill, with probability rising linearly to 1 at full queues —
// every tenant degrades alike, the baseline graceful-degradation
// policy.
type ShedFair struct {
	rng *rand.Rand
}

// Name implements ShedPolicy.
func (s *ShedFair) Name() string { return "fair" }

// Init implements ShedPolicy.
func (s *ShedFair) Init(tenants int, seed int64) {
	s.rng = rand.New(rand.NewSource(seed ^ shedRngSalt))
}

// Shed implements ShedPolicy.
func (s *ShedFair) Shed(a Arrival, load float64, polluter bool) bool {
	if load < shedFill {
		return false
	}
	p := (load - shedFill) / (1 - shedFill)
	return s.rng.Float64() < p
}

// ShedPolluter sheds the polluting class first: arrivals classified as
// LLC polluters are rejected outright once queue fill crosses
// shedFill, and only past shedAllFill does it fall back to fair random
// shedding of everyone else. Under a 3× overload driven by the
// streaming cohort this keeps the cache-sensitive victims' tails
// intact — degradation by choice rather than by accident.
type ShedPolluter struct {
	rng *rand.Rand
}

// Name implements ShedPolicy.
func (s *ShedPolluter) Name() string { return "polluter" }

// Init implements ShedPolicy.
func (s *ShedPolluter) Init(tenants int, seed int64) {
	s.rng = rand.New(rand.NewSource(seed ^ shedRngSalt))
}

// Shed implements ShedPolicy.
func (s *ShedPolluter) Shed(a Arrival, load float64, polluter bool) bool {
	if polluter && load >= shedFill {
		return true
	}
	if load < shedAllFill {
		return false
	}
	p := (load - shedAllFill) / (1 - shedAllFill)
	return s.rng.Float64() < p
}

// shedRngSalt keys shed-policy rngs off the run seed, independent of
// the arrival, query and overload jitter streams.
const shedRngSalt = 0x73686564 // "shed"

// ParseShedPolicy maps a policy name to a fresh policy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "none":
		return ShedNone{}, nil
	case "fair":
		return &ShedFair{}, nil
	case "polluter":
		return &ShedPolluter{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown shed policy %q (want none, fair or polluter)", s)
	}
}

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
