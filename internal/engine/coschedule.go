package engine

import (
	"math/rand"
	"sort"

	"cachepart/internal/core"
)

// This file implements the scheduling idea the paper sketches in its
// conclusion (Section VIII): "it might be advisable to co-run
// operators with high cache pollution characteristics, but let
// cache-sensitive queries rather run alone." Queries are profiled by
// the cache-usage identifiers of their planned phases and grouped so
// that polluters share a round while sensitive queries co-run with
// other sensitive queries (or alone).

// ProfileOf classifies a query for scheduling by planning one
// execution and inspecting its phases: a query whose row-counting work
// is dominated by polluting phases is a polluter; one with any
// sensitive phase is sensitive; otherwise it follows its joins.
func ProfileOf(q Query, cores int, rng *rand.Rand) (core.CUID, error) {
	phases, err := q.Plan(cores, rng)
	if err != nil {
		return core.Sensitive, err
	}
	var sawPolluting, sawDepends bool
	for _, ph := range phases {
		switch ph.CUID {
		case core.Unset:
			return core.Unset, unsetCUID(q, ph)
		case core.Sensitive:
			return core.Sensitive, nil
		case core.Polluting:
			sawPolluting = true
		case core.Depends:
			sawDepends = true
		}
	}
	switch {
	case sawDepends:
		return core.Depends, nil
	case sawPolluting:
		return core.Polluting, nil
	default:
		return core.Sensitive, nil
	}
}

// Round is a set of queries scheduled to run concurrently.
type Round []Query

// PlanRounds groups queries into rounds of at most `slots` concurrent
// streams. With cacheAware set, queries are ordered by their profile
// so polluters fill rounds together and cache-sensitive queries share
// rounds only with each other; otherwise the input order is kept
// (a naive mixed schedule).
func PlanRounds(queries []Query, profiles []core.CUID, slots int, cacheAware bool) []Round {
	if slots < 1 {
		slots = 1
	}
	idx := make([]int, len(queries))
	for i := range idx {
		idx[i] = i
	}
	if cacheAware {
		// Polluting first, then Depends, then Sensitive; stable so
		// equal-profile queries keep their submission order.
		rank := func(c core.CUID) int {
			switch c {
			case core.Polluting:
				return 0
			case core.Depends:
				return 1
			default:
				return 2
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return rank(profiles[idx[a]]) < rank(profiles[idx[b]])
		})
	}
	var rounds []Round
	for start := 0; start < len(idx); start += slots {
		end := start + slots
		if end > len(idx) {
			end = len(idx)
		}
		var r Round
		for _, i := range idx[start:end] {
			r = append(r, queries[i])
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// RunRounds executes each round as a co-run over equal core splits and
// returns the per-query results in query order of the rounds.
func (e *Engine) RunRounds(rounds []Round, opts RunOptions) ([][]StreamResult, error) {
	out := make([][]StreamResult, 0, len(rounds))
	for _, r := range rounds {
		specs := make([]StreamSpec, len(r))
		per := e.m.Cores() / len(r)
		if per < 1 {
			per = 1
		}
		next := 0
		for i, q := range r {
			cores := make([]int, per)
			for j := range cores {
				cores[j] = next
				next++
			}
			specs[i] = StreamSpec{Query: q, Cores: cores}
		}
		res, err := e.Run(specs, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
