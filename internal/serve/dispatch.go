package serve

import (
	"fmt"
	"math/rand"

	"cachepart/internal/adapt"
	"cachepart/internal/cachesim"
	"cachepart/internal/engine"
)

// dispatch: the engine.Feed gluing generator, admission, overload
// control and queues to RunOpenLoop. The engine calls Next whenever a
// core group is idle at virtual tick now; the feed absorbs every
// arrival up to now — merging the trace with pending client retries —
// through the breaker → shed → bounded-queue chain, expires queries
// whose SLO deadline passed in queue, then hands out the next queued
// query in CLOS-aware FIFO order (pick). All state transitions key off
// virtual ticks carried in the arrival trace, so the decision sequence
// is replayed bit-identically for a fixed (seed, fault-seed, config).

// agingBound is the CLOS-affinity starvation bound in simulated
// seconds: long enough to batch several queries per mask switch, short
// enough that a passed-over class still meets its tail latency at
// saturation.
const agingBound = 250e-6

// feed implements engine.Feed (and engine.CompletionObserver) over
// bounded per-tenant FIFOs with SLO-aware overload control.
type feed struct {
	seed int64
	// rngs[g] is group g's query stream, reseeded at each dispatch:
	// Seed rebuilds the whole state, as a fresh rand.Rand would.
	rngs     []*rand.Rand
	tenants  []Tenant
	arrivals []Arrival
	cursor   int
	// lastClass[g] is the Workload.Class group g most recently
	// dispatched (-1 before the first), the affinity key pick prefers.
	lastClass []int
	// agingTicks bounds how long pick may pass over the globally
	// oldest query in favour of class affinity.
	agingTicks int64

	// queues[t] is tenant t's FIFO; heads[t] indexes its front. Slots
	// before the head are dead — with bounded caps the waste is small
	// and popping stays allocation-free.
	queues [][]Arrival
	heads  []int

	// Overload control. target[t] and deadline[t] are tenant t's SLO
	// and queueing deadline in ticks (0 = none); breakers[t] is inert
	// without an SLO. pending holds scheduled client retries, merged
	// with the trace in (tick, seq, attempt) order. shedRng draws the
	// shed policy's coin flips, olRng every overload-control jitter
	// (retry backoff, breaker reopen), both at deterministic event
	// points inside the virtual-time loop.
	shed        Shed
	shedRng     *rand.Rand
	tracker     *polluterTracker
	breakers    []tenantBreaker
	target      []int64
	deadline    []int64
	hasDeadline bool
	retries     int
	retryBase   int64
	pending     retryHeap
	olRng       *rand.Rand
	// capSum is Σ queue caps, the denominator of the shed-policy load.
	capSum int

	// report is the Report's per-tenant slice, which the feed counts
	// into as it goes: arrivals (first attempts), attempts, admissions,
	// drops by reason, retries, abandons and peak depth. Per tenant,
	// Attempts == Admitted + Dropped, and Admitted == Completed after
	// the drain (queues empty).
	report []TenantReport
	// depthSum integrates each queue's depth over virtual time
	// (Σ depth·dt); lastTick is the previous integration point.
	depthSum []float64
	lastTick int64
	endTick  int64
}

func newFeed(cfg *Config, m *cachesim.Machine, arrivals []Arrival, groupCores []int) *feed {
	n := len(cfg.Tenants)
	ticksPerSec := float64(m.Ticks(1))
	last := make([]int, len(groupCores))
	rngs := make([]*rand.Rand, len(groupCores))
	for i := range last {
		last[i] = -1
		rngs[i] = rand.New(rand.NewSource(0))
	}
	f := &feed{
		seed:       cfg.Seed,
		rngs:       rngs,
		tenants:    cfg.Tenants,
		arrivals:   arrivals,
		lastClass:  last,
		agingTicks: m.Ticks(agingBound),
		queues:     make([][]Arrival, n),
		heads:      make([]int, n),
		shed:       cfg.Shed,
		shedRng:    rand.New(rand.NewSource(cfg.Seed ^ shedRngSalt)),
		tracker:    newPolluterTracker(cfg.Tenants, groupCores, adapt.StreamingBandwidthFraction*m.Config().DRAMBandwidth, ticksPerSec),
		breakers:   make([]tenantBreaker, n),
		target:     make([]int64, n),
		deadline:   make([]int64, n),
		retries:    cfg.Retries,
		retryBase:  max(m.Ticks(retryBackoffSeconds), 1),
		olRng:      newOverloadRng(cfg.Seed),
		report:     make([]TenantReport, n),
		depthSum:   make([]float64, n),
	}
	breakerBase := max(m.Ticks(breakerBackoffSeconds), 1)
	for ti := range cfg.Tenants {
		t := &cfg.Tenants[ti]
		f.report[ti].Name = t.Name
		f.capSum += t.queueCap()
		if t.SLO > 0 {
			f.target[ti] = m.Ticks(t.SLO)
			f.deadline[ti] = m.Ticks(deadlineSLOs * t.SLO)
			f.hasDeadline = true
		}
		f.breakers[ti] = newTenantBreaker(f.target[ti], breakerBase)
	}
	return f
}

func (f *feed) depth(tenant int) int { return len(f.queues[tenant]) - f.heads[tenant] }

// load is the aggregate queue fill fraction the shed policies key off.
func (f *feed) load() float64 {
	d := 0
	for t := range f.queues {
		d += f.depth(t)
	}
	return float64(d) / float64(f.capSum)
}

// jitter draws the seeded backoff scale factor in [0.5, 1.5).
func (f *feed) jitter() float64 { return 0.5 + f.olRng.Float64() }

// integrate advances the depth integrals to tick. Next is called with
// non-decreasing now and arrivals are absorbed in trace order, so tick
// never regresses.
func (f *feed) integrate(tick int64) {
	if dt := tick - f.lastTick; dt > 0 {
		for t := range f.queues {
			f.depthSum[t] += float64(f.depth(t)) * float64(dt)
		}
		f.lastTick = tick
	}
	if tick > f.endTick {
		f.endTick = tick
	}
}

// drop records one rejected attempt under its reason, resolves a
// half-open probe that died before completing, and — when the client
// retry model allows — schedules the re-arrival at `at` plus seeded
// exponential backoff. A query whose final attempt drops is abandoned.
func (f *feed) drop(a Arrival, reason DropReason, at int64) {
	t := a.Tenant
	tr := &f.report[t]
	tr.Dropped++
	switch reason {
	case DropQueueFull:
		tr.DropQueue++
	case DropDeadline:
		tr.DropDeadline++
	case DropShed:
		tr.DropShed++
	case DropBreaker:
		tr.DropBreaker++
	}
	f.breakers[t].probeDropped(a.Seq, at, f.jitter)
	if a.Attempt < f.retries && f.withinBudget(t) {
		backoff := float64(f.retryBase<<uint(a.Attempt)) * f.jitter()
		r := a
		r.Attempt++
		r.Tick = at + int64(backoff)
		f.pending.push(r)
		tr.Retries++
		return
	}
	tr.Abandoned++
}

// withinBudget checks the tenant's client retry budget: cumulative
// retries stay within retryBudget of cumulative first arrivals.
func (f *feed) withinBudget(t int) bool {
	return float64(f.report[t].Retries+1) <= retryBudget*float64(f.report[t].Arrivals)
}

// nextArrival peeks the earliest unabsorbed arrival across the trace
// cursor and the retry heap, preferring the (tick, seq, attempt) order.
func (f *feed) nextArrival() (Arrival, bool) {
	haveTrace := f.cursor < len(f.arrivals)
	havePending := len(f.pending) > 0
	switch {
	case haveTrace && havePending:
		if retryLess(f.pending[0], f.arrivals[f.cursor]) {
			return f.pending[0], true
		}
		return f.arrivals[f.cursor], true
	case haveTrace:
		return f.arrivals[f.cursor], true
	case havePending:
		return f.pending[0], true
	default:
		return Arrival{}, false
	}
}

// absorb runs the admission chain for every arrival (trace or retry)
// at or before now, in (tick, seq, attempt) order: breaker → shed →
// bounded queue. A half-open probe bypasses shedding — the
// breaker's contract is that exactly one probe reaches the queue.
func (f *feed) absorb(now int64) {
	for {
		a, ok := f.nextArrival()
		if !ok || a.Tick > now {
			return
		}
		if a.Attempt == 0 {
			f.cursor++
		} else {
			f.pending.pop()
		}
		f.integrate(a.Tick)
		t := a.Tenant
		tr := &f.report[t]
		tr.Attempts++
		if a.Attempt == 0 {
			tr.Arrivals++
		}
		admit, probe := f.breakers[t].admit(a)
		if !admit {
			f.drop(a, DropBreaker, a.Tick)
			continue
		}
		if !probe && f.shed.shed(f.load(), f.tracker.polluter(t, a.Kind), f.shedRng) {
			f.drop(a, DropShed, a.Tick)
			continue
		}
		d := f.depth(t)
		if d >= f.tenants[t].queueCap() {
			f.drop(a, DropQueueFull, a.Tick)
			continue
		}
		tr.Admitted++
		f.queues[t] = append(f.queues[t], a)
		tr.PeakDepth = max(tr.PeakDepth, d+1)
	}
}

// expire drops queued queries whose deadline passed by now. Queues are
// FIFO in arrival-tick order and a tenant's deadline is constant, so
// only heads can be expired; the drop is stamped at the expiry tick,
// which also anchors the client's retry backoff.
func (f *feed) expire(now int64) {
	if !f.hasDeadline {
		return
	}
	f.integrate(now)
	for t := range f.queues {
		dl := f.deadline[t]
		if dl == 0 {
			continue
		}
		for f.depth(t) > 0 {
			a := f.queues[t][f.heads[t]]
			exp := a.Tick + dl
			if exp > now {
				break
			}
			f.popHead(t)
			f.drop(a, DropDeadline, exp)
		}
	}
}

// popHead removes tenant t's queue head.
func (f *feed) popHead(t int) {
	f.heads[t]++
	if f.heads[t] == len(f.queues[t]) {
		f.queues[t] = f.queues[t][:0]
		f.heads[t] = 0
	}
}

// headClass is the CLOS class of tenant t's queue head.
func (f *feed) headClass(t int) int {
	a := f.queues[t][f.heads[t]]
	return f.tenants[a.Tenant].Mix[a.Kind].Class
}

// oldest returns the tenant whose head is globally oldest (ties:
// lowest tenant index), restricted to heads of the given class when
// class >= 0; -1 if no queue qualifies.
func (f *feed) oldest(class int) (int, int64) {
	best, bestTick := -1, int64(0)
	for t := range f.queues {
		if f.depth(t) == 0 {
			continue
		}
		if class >= 0 && f.headClass(t) != class {
			continue
		}
		head := f.queues[t][f.heads[t]]
		if best < 0 || head.Tick < bestTick {
			best, bestTick = t, head.Tick
		}
	}
	return best, bestTick
}

// pick selects the tenant whose queue head group serves next, or -1
// if every queue is empty. It is CLOS-aware FIFO: the group prefers the
// oldest queued query whose Workload.Class matches the class it last
// dispatched, batching same-allocation queries so the engine's mask
// reprogramming is paid per batch instead of per query. Once the
// globally oldest query has waited agingTicks the group takes it, so
// no class starves. When every workload shares one class this is
// exactly FIFO (ties: lowest tenant index).
func (f *feed) pick(group int, now int64) int {
	t, tick := f.oldest(-1)
	if t < 0 {
		return -1
	}
	if last := f.lastClass[group]; last >= 0 && now-tick < f.agingTicks {
		if m, _ := f.oldest(last); m >= 0 {
			return m
		}
	}
	return t
}

// Next implements engine.Feed.
func (f *feed) Next(group int, now int64) (engine.Submission, bool, int64) {
	// Expiry can schedule a retry already due at now (a short backoff
	// after an old deadline), so loop until no arrival at or before now
	// remains; attempts are bounded, so the loop terminates.
	for {
		f.absorb(now)
		f.expire(now)
		if a, ok := f.nextArrival(); !ok || a.Tick > now {
			break
		}
	}
	t := f.pick(group, now)
	if t < 0 {
		wake := int64(-1)
		if a, ok := f.nextArrival(); ok {
			wake = a.Tick
		}
		return engine.Submission{}, false, wake
	}
	f.integrate(now)
	a := f.queues[t][f.heads[t]]
	f.popHead(t)
	w := &f.tenants[a.Tenant].Mix[a.Kind]
	f.lastClass[group] = w.Class
	rng := f.rngs[group]
	rng.Seed(querySeed(f.seed, a))
	return engine.Submission{
		Query:   w.Instances[group],
		Rng:     rng,
		Release: a.Tick,
		Tag:     a.Seq,
	}, true, 0
}

// Observe implements engine.CompletionObserver: completion telemetry
// feeds the polluter classifier and the tenant's circuit breaker, in
// the engine's deterministic completion order on the coordinator.
func (f *feed) Observe(c engine.Completion) {
	first := f.arrivals[c.Tag]
	f.tracker.observe(first.Tenant, first.Kind, c)
	// Client latency spans from the first arrival, so backoff spent
	// retrying counts against the SLO.
	f.breakers[first.Tenant].observe(c.Tag, c.Done-first.Tick, c.Done, f.jitter)
}

// leftover reports queries still queued when the run drains — with
// arrivals bounded to the horizon the engine retires every group only
// after the queues empty, so a nonzero value indicates a feed bug.
func (f *feed) leftover() int {
	n := 0
	for t := range f.queues {
		n += f.depth(t)
	}
	return n
}

var (
	_ engine.Feed               = (*feed)(nil)
	_ engine.CompletionObserver = (*feed)(nil)
)

// checkDrained asserts the drain invariant after a run.
func (f *feed) checkDrained() error {
	if n := f.leftover(); n != 0 {
		return fmt.Errorf("serve: %d queries left queued after drain", n)
	}
	if f.cursor != len(f.arrivals) {
		return fmt.Errorf("serve: %d arrivals never absorbed", len(f.arrivals)-f.cursor)
	}
	if len(f.pending) != 0 {
		return fmt.Errorf("serve: %d retries never absorbed", len(f.pending))
	}
	return nil
}
