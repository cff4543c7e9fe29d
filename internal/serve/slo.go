package serve

import (
	"container/heap"
	"math/rand"
)

// slo: the overload-control state machines that enforce each
// tenant's SLO — virtual-time deadline expiry, per-tenant circuit
// breakers, and the deterministic client retry model. Their shapes are
// constants; the only settable values are Tenant.SLO, Config.Retries
// and Config.Shed. Every random quantity (backoff jitter) is drawn
// from the feed's seeded overload rng at deterministic event points
// inside the virtual-time loop, so the whole control layer replays
// bit-identically per (seed, fault-seed). DESIGN.md §13 documents the
// model.

// deadlineSLOs is a tenant's queueing deadline in multiples of its
// SLO: a query still queued this long after its queued attempt's
// arrival tick is dropped with DropDeadline, and the client's retry
// model takes over.
const deadlineSLOs = 2

// The client retry model: a dropped or timed-out query re-enters the
// arrival stream after retryBackoffSeconds, doubled per later attempt
// and scaled by a seeded jitter factor in [0.5, 1.5) — a few mean
// service times at serving scale, so retries land after transient
// queue spikes. Each tenant's cumulative retries stay within
// retryBudget of its cumulative first arrivals (the classic client
// retry budget: a failing service sees at most 1+budget times its
// offered load).
const (
	retryBackoffSeconds = 50e-6
	retryBudget         = 0.3
)

// The circuit breaker of every tenant with an SLO: it trips when
// breakerTrip of the last breakerWindow completions missed the SLO,
// rejects the tenant's arrivals for breakerBackoffSeconds (doubled on
// each failed half-open probe, scaled by a seeded jitter factor in
// [0.5, 1.5)), admits exactly one half-open probe, and closes again
// only if the probe meets the SLO. Half the window trips, and the
// first open interval spans a few control epochs of simulated time.
const (
	breakerWindow         = 32
	breakerTrip           = 16
	breakerBackoffSeconds = 200e-6
)

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
	// targetTicks is the per-completion violation bound, the tenant's
	// SLO; 0 leaves the breaker inert: it admits everything, draws no
	// jitter and counts nothing.
	targetTicks int64
	window      [breakerWindow]bool
	idx, filled int
	violations  int

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

func newTenantBreaker(targetTicks, baseTicks int64) tenantBreaker {
	return tenantBreaker{
		targetTicks:  targetTicks,
		backoffTicks: baseTicks,
		baseTicks:    baseTicks,
		probeSeq:     -1,
	}
}

func (b *tenantBreaker) enabled() bool { return b.targetTicks > 0 }

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
	if b.filled == len(b.window) && b.violations >= breakerTrip {
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
	b.window = [breakerWindow]bool{}
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
