package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"cachepart"
	"cachepart/internal/workload"
)

// rep is one repetition of a workload: a fresh System built from the
// seed (timed as set-up), then the measured section.
type rep struct {
	setup, host time.Duration
	heapMiB     float64 // HeapAlloc after a forced GC, System still live
	allocMiB    float64 // TotalAlloc delta of the measured section
	out         outcome
	tr          *tracer // nil for an untraced repetition
}

func (r rep) accesses() uint64 { return r.out.stats.Reads + r.out.stats.Writes }

// The host wall clock is what this program measures. Its readings go
// into the report and never reach simulator state, so simulated results
// stay a function of the seed alone.
//
//lint:allow nondet host wall clock is the measurement; it never reaches simulator state
func hostNow() time.Time { return time.Now() }

//lint:allow nondet host wall clock is the measurement; it never reaches simulator state
func hostSince(t time.Time) time.Duration { return time.Since(t) }

// runRep runs one repetition. tr is nil for an untraced repetition.
func runRep(w spec, seed int64, quick bool, tr *tracer) (rep, error) {
	r := rep{tr: tr}
	runtime.GC()
	repSpan := int32(-1)
	if tr != nil {
		repSpan = tr.begin(tr.intern(spanRep), 0)
	}
	t0 := hostNow()
	sys, err := cachepart.NewSystem(w.params(seed, quick))
	if err != nil {
		return r, err
	}
	sec, err := w.build(sys, tr, quick)
	if err != nil {
		return r, fmt.Errorf("%s: build: %w", w.name, err)
	}
	r.setup = hostSince(t0)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := hostNow()
	r.out, err = sec.run()
	r.host = hostSince(t1)
	if tr != nil {
		tr.end(repSpan, 0)
	}
	if err != nil {
		return r, fmt.Errorf("%s: run: %w", w.name, err)
	}
	runtime.ReadMemStats(&after)
	r.allocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.heapMiB = float64(after.HeapAlloc) / (1 << 20)
	if sec.verify != nil {
		r.out.failures = append(r.out.failures, sec.verify()...)
	}
	runtime.KeepAlive(sec) // the queries hold the data sets
	runtime.KeepAlive(sys)
	return r, nil
}

// verifyAgg compares the aggregation's last completed result with a
// reference map group-by over Column.Value.
func verifyAgg(q cachepart.Query) []string {
	agg := q.(*workload.AggQuery)
	got := agg.LastResult()
	if got == nil {
		return []string{"aggregation completed no execution to verify"}
	}
	want := make(map[uint32]int64)
	for i := 0; i < agg.GroupCol.Rows(); i++ {
		g := agg.GroupCol.Codes.Get(i)
		v := agg.ValueCol.Value(i)
		if old, ok := want[g]; !ok || v > old {
			want[g] = v
		}
	}
	if len(got) != len(want) {
		return []string{fmt.Sprintf("aggregation result has %d groups, reference %d", len(got), len(want))}
	}
	wrong := 0
	for g, v := range want {
		if got[g] != v {
			wrong++
		}
	}
	if wrong > 0 {
		return []string{fmt.Sprintf("aggregation result differs from the reference in %d of %d groups", wrong, len(want))}
	}
	return nil
}

// median returns the median of xs, which must not be empty.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
