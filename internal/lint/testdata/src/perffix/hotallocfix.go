// Package perffix exercises the two hot-path checks: hotness roots and
// propagation, the hotalloc allocation shapes and integer-keyed maps,
// each with flagged, //lint:allow-suppressed and fixed variants.
package perffix

import (
	"cachepart/internal/lint/testdata/src/perffix/phelper"
)

type point struct{ x int }

// sink is the interface parameter the boxing case passes through.
func sink(v any) {}

// HotAllocShapes holds every unconditional allocation shape once.
//
//perf:hot fixture root: per-access entry point
func HotAllocShapes(n int, name string) []int {
	buf := make([]int, n)       // want "make allocates on every execution"
	lits := []int{1, 2, n}      // want "slice literal allocates"
	counts := map[int]int{n: n} // want "map literal allocates"
	pt := &point{x: n}          // want "address of composite literal escapes to the heap"
	label := name + "!"         // want "string concatenation allocates"
	sink(n)                     // want "argument boxed into interface parameter allocates"
	ext := phelper.Chain(n, n)  // want "call to Chain allocates: slice literal allocates; hoist to construction or use a fixed array (via Wrap)"
	buf[0] = lits[0] + len(counts) + pt.x + len(label) + ext[0]
	return buf
}

// HotAllocLoops holds the shapes reported only inside loops.
//
//perf:hot fixture root: per-access entry point
func HotAllocLoops(rows []int) int {
	total := 0
	var out []int
	for _, r := range rows {
		out = append(out, r)         // want "append to a local without preallocation grows per iteration"
		f := func() int { return r } // want "closure allocated per iteration"
		total += f()
	}
	return total + len(out)
}

// HotAllocGuarded passes clean: the growth is behind a capacity check
// (amortized, off the steady state) and the append reuses capacity via
// the self-resetting slice idiom.
//
//perf:hot fixture root: per-access entry point
func HotAllocGuarded(n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, 0, n)
	}
	buf = append(buf[:0], n)
	return buf
}

// HotAllocAllowed documents an accepted allocation.
//
//perf:hot fixture root: per-access entry point
func HotAllocAllowed(n int) []int {
	//lint:allow hotalloc fixture: construction-time sizing, amortized by the caller
	return make([]int, n)
}

// HotAllocRoot only calls a helper; the helper's allocation is
// reported at its own site with propagated provenance, not at this
// call (same-package callees report directly).
//
//perf:hot fixture root: per-access entry point
func HotAllocRoot(n int) []int {
	return helperAlloc(n)
}

// helperAlloc is hot by propagation from HotAllocRoot.
func helperAlloc(n int) []int {
	return make([]int, n) // want "helperAlloc is hot (reached from HotAllocRoot)"
}

// ColdAllocs is not annotated and unreachable from any hot root;
// nothing is reported regardless of shape.
func ColdAllocs(n int) []int {
	return make([]int, n)
}
