// Package parfix is a golden-test fixture for the nondet analyzer's
// channel-drain rule. It stages a fan-in merge: workers send buffered
// events over a channel and a collector folds them into shared state.
// Applying events in arrival order is the bug — goroutine scheduling
// decides the order, so two runs diverge. Collecting the events and
// sorting on a deterministic key before applying is clean, as are
// purely commutative folds.
package parfix

import "sort"

type event struct {
	tick int64
	core int
	line uint64
}

type llcState struct {
	fills  []uint64
	misses int64
}

func (s *llcState) apply(ev event) { s.fills = append(s.fills, ev.line) }

// drainUnsorted is the bug: events arrive in goroutine-completion
// order, and apply mutates LRU-like state, so the merged result
// depends on host scheduling.
func drainUnsorted(s *llcState, ch chan event) {
	for ev := range ch { // want "channel drain order"
		s.apply(ev)
	}
}

// drainSorted is the sanctioned shape: collect everything, order by
// the deterministic (tick, core) key, then apply.
func drainSorted(s *llcState, ch chan event) {
	var evs []event
	for ev := range ch { // collected then sorted below: clean
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].tick != evs[j].tick {
			return evs[i].tick < evs[j].tick
		}
		return evs[i].core < evs[j].core
	})
	for _, ev := range evs {
		s.apply(ev)
	}
}

// drainCount only accumulates commutatively; arrival order cannot
// change the sum.
func drainCount(s *llcState, ch chan event) {
	for range ch { // commutative accumulation: clean
		s.misses++
	}
}

// drainFirst keeps only the first arrival — a race on which worker
// finishes first.
func drainFirst(ch chan event) event {
	for ev := range ch { // want "channel drain order"
		return ev
	}
	return event{}
}
