package serve

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// slo: per-tenant service-level objectives and the overload-control
// state machines that enforce them — virtual-time deadline expiry,
// per-tenant circuit breakers, and the deterministic client retry
// model. Every random quantity (backoff jitter) is drawn from the
// feed's seeded overload rng at deterministic event points inside the
// virtual-time loop, so the whole control layer replays bit-
// identically per (seed, fault-seed). DESIGN.md §15 documents the
// model.

// SLO is one tenant's service-level objective, in simulated seconds.
// The zero value disables both mechanisms for the tenant.
type SLO struct {
	// DeadlineSeconds is the client's end-to-end timeout: a query still
	// queued this long after its (first) arrival is dropped with
	// DropDeadline at the moment the expiry is observed, and the
	// client's retry model takes over. 0 means queries never expire.
	DeadlineSeconds float64
	// TargetP99Seconds is the tenant's tail-latency target, the
	// circuit breaker's per-completion violation bound. 0 exempts the
	// tenant from breaker control.
	TargetP99Seconds float64
}

// Retry models the client population's reaction to failure: a dropped
// or timed-out query re-enters the arrival stream after a seeded
// exponential backoff, so retry storms are simulated rather than
// assumed away. The zero value disables retries.
type Retry struct {
	// MaxAttempts is the total number of tries per query including the
	// first; 0 or 1 disables retries.
	MaxAttempts int
	// BackoffSeconds is the base client backoff before the first
	// retry; it doubles per subsequent attempt, scaled by a seeded
	// jitter factor in [0.5, 1.5). 0 uses DefaultRetryBackoffSeconds.
	BackoffSeconds float64
	// BudgetFraction caps each tenant's cumulative retries at this
	// fraction of its cumulative first arrivals (the classic client
	// retry budget: a failing service sees at most 1+budget times its
	// offered load). 0 leaves the budget unlimited.
	BudgetFraction float64
}

// DefaultRetryBackoffSeconds is the base client backoff when
// Retry.BackoffSeconds is 0: a few mean service times at serving
// scale, long enough that retries land after transient queue spikes.
const DefaultRetryBackoffSeconds = 50e-6

func (r Retry) enabled() bool { return r.MaxAttempts > 1 }

func (r Retry) validate() error {
	if r.MaxAttempts < 0 {
		return fmt.Errorf("serve: retry attempts %d must be >= 0", r.MaxAttempts)
	}
	if r.BackoffSeconds < 0 {
		return fmt.Errorf("serve: retry backoff %v must be >= 0", r.BackoffSeconds)
	}
	if r.BudgetFraction < 0 {
		return fmt.Errorf("serve: retry budget %v must be >= 0", r.BudgetFraction)
	}
	return nil
}

// Breaker configures the per-tenant circuit breakers. A breaker trips
// when, over a sliding window of recent completions, the share
// violating the tenant's TargetP99Seconds reaches TripFraction; it
// then rejects the tenant's arrivals for a backed-off virtual-time
// interval, admits exactly one half-open probe, and closes again only
// if the probe meets the SLO. The zero value disables breakers.
type Breaker struct {
	// Window is the sliding completion window the violation share is
	// computed over; 0 disables breakers entirely.
	Window int
	// TripFraction is the violating share of the window that trips;
	// 0 uses DefaultBreakerTripFraction.
	TripFraction float64
	// BackoffSeconds is the initial open interval; it doubles on each
	// failed half-open probe, scaled by a seeded jitter factor in
	// [0.5, 1.5). 0 uses DefaultBreakerBackoffSeconds.
	BackoffSeconds float64
}

// Breaker defaults: half the window violating trips, and the first
// open interval spans a few control epochs of simulated time.
const (
	DefaultBreakerTripFraction   = 0.5
	DefaultBreakerBackoffSeconds = 200e-6
)

func (b Breaker) enabled() bool { return b.Window > 0 }

func (b Breaker) validate() error {
	if b.Window < 0 {
		return fmt.Errorf("serve: breaker window %d must be >= 0", b.Window)
	}
	if b.TripFraction < 0 || b.TripFraction > 1 {
		return fmt.Errorf("serve: breaker trip fraction %v out of [0,1]", b.TripFraction)
	}
	if b.BackoffSeconds < 0 {
		return fmt.Errorf("serve: breaker backoff %v must be >= 0", b.BackoffSeconds)
	}
	return nil
}

// breakerState enumerates the circuit-breaker state machine.
type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

// tenantBreaker is one tenant's breaker. All transitions happen at
// deterministic virtual-time events (arrival absorption and completion
// observation on the coordinator), so the state sequence is a pure
// function of the trace.
type tenantBreaker struct {
	// targetTicks is the per-completion violation bound; 0 disables
	// this tenant's breaker.
	targetTicks int64
	window      []bool
	idx, filled int
	violations  int
	tripAt      int // violations threshold, ceil(TripFraction·Window)

	state     breakerState
	openUntil int64
	// backoffTicks is the current open interval; baseTicks the initial
	// one it resets to after a successful probe.
	backoffTicks int64
	baseTicks    int64
	// probeSeq is the Seq of the outstanding half-open probe, -1 when
	// none is in flight.
	probeSeq int64

	trips  int64
	probes int64
}

func newTenantBreaker(cfg Breaker, targetTicks int64, ticksPerSec float64) tenantBreaker {
	trip := cfg.TripFraction
	if trip == 0 {
		trip = DefaultBreakerTripFraction
	}
	backoff := cfg.BackoffSeconds
	if backoff == 0 {
		backoff = DefaultBreakerBackoffSeconds
	}
	base := int64(backoff * ticksPerSec)
	if base < 1 {
		base = 1
	}
	tripAt := int(trip*float64(cfg.Window) + 0.9999)
	if tripAt < 1 {
		tripAt = 1
	}
	return tenantBreaker{
		targetTicks:  targetTicks,
		window:       make([]bool, cfg.Window),
		tripAt:       tripAt,
		backoffTicks: base,
		baseTicks:    base,
		probeSeq:     -1,
	}
}

func (b *tenantBreaker) enabled() bool { return b.targetTicks > 0 && len(b.window) > 0 }

// admit decides one arrival's fate: closed admits, open rejects until
// the backoff elapses, and the first arrival at or past openUntil
// becomes the half-open probe — exactly one is in flight at a time.
func (b *tenantBreaker) admit(a Arrival) (ok, probe bool) {
	if !b.enabled() {
		return true, false
	}
	switch b.state {
	case bkOpen:
		if a.Tick < b.openUntil {
			return false, false
		}
		b.state = bkHalfOpen
		b.probeSeq = a.Seq
		b.probes++
		return true, true
	case bkHalfOpen:
		return false, false
	default:
		return true, false
	}
}

// jitterFn scales a backoff by a seeded factor in [0.5, 1.5).
type jitterFn func() float64

// observe feeds one completion's client latency into the window (or
// resolves the half-open probe). now is the completion tick; jitter
// draws the seeded backoff factor when the breaker (re)opens.
func (b *tenantBreaker) observe(seq, latency, now int64, jitter jitterFn) {
	if !b.enabled() {
		return
	}
	violated := latency > b.targetTicks
	if b.state == bkHalfOpen && seq == b.probeSeq {
		b.probeSeq = -1
		if violated {
			b.reopen(now, jitter)
		} else {
			b.close()
		}
		return
	}
	if b.state != bkClosed {
		// Stragglers admitted before the trip resolve while open; the
		// probe alone decides the next transition.
		return
	}
	if b.window[b.idx] {
		b.violations--
	}
	b.window[b.idx] = violated
	if violated {
		b.violations++
	}
	b.idx = (b.idx + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
	if b.filled == len(b.window) && b.violations >= b.tripAt {
		b.trip(now, jitter)
	}
}

// probeDropped handles a half-open probe that never completed (queue
// or deadline drop): the probe failed, so the breaker reopens
// with a doubled backoff.
func (b *tenantBreaker) probeDropped(seq, now int64, jitter jitterFn) {
	if b.state == bkHalfOpen && seq == b.probeSeq {
		b.probeSeq = -1
		b.reopen(now, jitter)
	}
}

func (b *tenantBreaker) trip(now int64, jitter jitterFn) {
	b.state = bkOpen
	b.openUntil = now + int64(float64(b.backoffTicks)*jitter())
	b.trips++
	b.resetWindow()
}

// reopen doubles the backoff and opens again — the half-open probe
// (or its drop) proved the tenant still cannot meet its SLO.
func (b *tenantBreaker) reopen(now int64, jitter jitterFn) {
	b.backoffTicks *= 2
	b.state = bkOpen
	b.openUntil = now + int64(float64(b.backoffTicks)*jitter())
	b.trips++
}

// close resets the breaker after a successful probe.
func (b *tenantBreaker) close() {
	b.state = bkClosed
	b.backoffTicks = b.baseTicks
	b.resetWindow()
}

func (b *tenantBreaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.violations = 0, 0, 0
}

// retryHeap is a container/heap min-heap of pending client re-arrivals
// ordered by (Tick, Seq, Attempt). A query has at most one pending
// retry, so no two entries tie and pops are deterministic.
type retryHeap []Arrival

func retryLess(a, b Arrival) bool {
	if a.Tick != b.Tick {
		return a.Tick < b.Tick
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Attempt < b.Attempt
}

func (h retryHeap) Len() int           { return len(h) }
func (h retryHeap) Less(i, j int) bool { return retryLess(h[i], h[j]) }
func (h retryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)        { *h = append(*h, x.(Arrival)) }

func (h *retryHeap) Pop() any {
	old := *h
	n := len(old) - 1
	a := old[n]
	*h = old[:n]
	return a
}

func (h *retryHeap) push(a Arrival) { heap.Push(h, a) }
func (h *retryHeap) pop() Arrival   { return heap.Pop(h).(Arrival) }

// olRngSalt keys the overload rng off the run seed so the jitter
// stream is independent of the arrival and per-query streams.
const olRngSalt = 0x6f766c64 // "ovld"

func newOverloadRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ olRngSalt))
}
