package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cachepart"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// Span names. Spans are recorded from outside the program, around the
// calls the benchmark makes into each layer and by the Query/Kernel
// wrappers it installs; spans inside the program are a later change.
const (
	spanRep         = "bench.rep"
	spanBuildPrefix = "workload.build."
	spanRun         = "engine.run"
	spanPlan        = "engine.plan"
	spanStep        = "exec.step"
)

// Kernel kinds tagged on exec.step spans.
const (
	kindScan     = "scan"
	kindAggLocal = "agg_local"
	kindAggMerge = "agg_merge"
	kindLookup   = "lookup"
	kindOther    = "other"
)

var stepKinds = []string{kindScan, kindAggLocal, kindAggMerge, kindLookup, kindOther}

// span is one timed interval. Its id is its position in the tracer;
// parent is the id of the span that was open when it began (-1 for a
// root). All spans of one tracer belong to one repetition. A step
// span is recorded per kernel slice — millions per repetition — so the
// record is kept to 32 bytes, with name and kind interned.
type span struct {
	start, end int64 // host ns since the tracer's epoch
	parent     int32
	rows       int32
	name, kind uint8 // indexes into tracer.names
}

// spanChunk is the allocation unit of the span store: growing by
// chunks never copies recorded spans.
const spanChunk = 1 << 16

// tracer records the spans of one traced repetition in memory. A nil
// tracer records nothing, so untraced repetitions pay only a nil check
// at the few call sites the benchmark itself owns; the Query/Kernel
// wrappers are not installed at all when untraced.
//
//conc:shared the benchmark runs only the serial simulator (Params.Parallel is never set), so every wrapper is stepped from the one load-generating goroutine
type tracer struct {
	workload string
	rep      int
	epoch    time.Time
	names    []string // names[0] is the empty kind
	chunks   [][]span
	n        int32
	open     []int32
}

func newTracer(workload string, rep int) *tracer {
	return &tracer{workload: workload, rep: rep, epoch: hostNow(), names: []string{""}}
}

// clock reads host ns since the tracer's epoch.
func (t *tracer) clock() int64 { return hostSince(t.epoch).Nanoseconds() }

// intern returns the index of a span name or kind.
func (t *tracer) intern(s string) uint8 {
	for i, n := range t.names {
		if n == s {
			return uint8(i)
		}
	}
	t.names = append(t.names, s)
	return uint8(len(t.names) - 1)
}

func (t *tracer) at(id int32) *span { return &t.chunks[id/spanChunk][id%spanChunk] }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, kind uint8) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := t.n
	if int(id/spanChunk) == len(t.chunks) {
		t.chunks = append(t.chunks, make([]span, spanChunk))
	}
	t.n++
	t.open = append(t.open, id)
	*t.at(id) = span{parent: parent, name: name, kind: kind, start: t.clock()}
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32, rows int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.open = t.open[:n-1]
	s := t.at(id)
	s.end = t.clock()
	s.rows = int32(rows)
}

// in runs f inside a named span; with a nil tracer it just runs f.
func (t *tracer) in(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.begin(t.intern(name), 0)
	err := f()
	t.end(id, 0)
	return err
}

// each visits the recorded spans in id order.
func (t *tracer) each(f func(id int32, s *span)) {
	for id := int32(0); id < t.n; id++ {
		f(id, t.at(id))
	}
}

// spanTotals aggregates spans by name (and, for spans with a kind, by
// name.kind): inclusive time, self time, count and rows. A span's self
// time is its duration minus the part its direct children cover.
type spanTotals struct {
	total, self map[string]time.Duration
	count, rows map[string]int64
}

func (t *tracer) totals() spanTotals {
	self := make([]int64, t.n)
	t.each(func(id int32, s *span) {
		d := s.end - s.start
		self[id] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	})
	st := spanTotals{
		total: map[string]time.Duration{}, self: map[string]time.Duration{},
		count: map[string]int64{}, rows: map[string]int64{},
	}
	t.each(func(id int32, s *span) {
		keys := []string{t.names[s.name]}
		if s.kind != 0 {
			keys = append(keys, t.names[s.name]+"."+t.names[s.kind])
		}
		for _, key := range keys {
			st.total[key] += time.Duration(s.end - s.start)
			st.self[key] += time.Duration(self[id])
			st.count[key]++
			st.rows[key] += int64(s.rows)
		}
	})
	return st
}

// writeJSONL writes the spans, one JSON object per line, to
// dir/<workload>.jsonl.
func (t *tracer) writeJSONL(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Workload string `json:"workload"`
		Rep      int    `json:"rep"`
		ID       int32  `json:"id"`
		Parent   int32  `json:"parent"`
		Name     string `json:"name"`
		Kind     string `json:"kind,omitempty"`
		Rows     int32  `json:"rows,omitempty"`
		StartNS  int64  `json:"start_ns"`
		EndNS    int64  `json:"end_ns"`
	}
	t.each(func(id int32, s *span) {
		if err == nil {
			err = enc.Encode(line{t.workload, t.rep, id, s.parent, t.names[s.name], t.names[s.kind], s.rows, s.start, s.end})
		}
	})
	if err != nil {
		return err
	}
	return w.Flush()
}

// tracedQuery wraps a query so that every Plan is an engine.plan span
// and every kernel it plans is stepped inside exec.step spans.
type tracedQuery struct {
	q    cachepart.Query
	tr   *tracer
	plan uint8 // interned span names
	step uint8
}

// tracedPrewarmer additionally forwards engine.Prewarmer, the only
// optional interface the engine asserts on a query
// (harness.Unannotated is the precedent).
type tracedPrewarmer struct {
	tracedQuery
	pw engine.Prewarmer
}

// traceQuery installs the wrappers; with a nil tracer the query is
// returned untouched.
func traceQuery(tr *tracer, q cachepart.Query) cachepart.Query {
	if tr == nil {
		return q
	}
	tq := tracedQuery{q: q, tr: tr, plan: tr.intern(spanPlan), step: tr.intern(spanStep)}
	if pw, ok := q.(engine.Prewarmer); ok {
		return &tracedPrewarmer{tq, pw}
	}
	return &tq
}

func (t *tracedQuery) Name() string { return t.q.Name() }

func (t *tracedQuery) Plan(cores int, rng *rand.Rand) ([]cachepart.Phase, error) {
	id := t.tr.begin(t.plan, 0)
	phases, err := t.q.Plan(cores, rng)
	for pi := range phases {
		ks := phases[pi].Kernels
		wrapped := make([]exec.Kernel, len(ks))
		for ki, k := range ks {
			wrapped[ki] = &tracedKernel{k: k, tr: t.tr, step: t.step, kind: t.tr.intern(kernelKind(k))}
		}
		phases[pi].Kernels = wrapped
	}
	t.tr.end(id, 0)
	return phases, err
}

func (t *tracedPrewarmer) PrewarmRegions(cores int) []memory.Region {
	return t.pw.PrewarmRegions(cores)
}

type tracedKernel struct {
	k          exec.Kernel
	tr         *tracer
	step, kind uint8
}

func (t *tracedKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	id := t.tr.begin(t.step, t.kind)
	rows, done := t.k.Step(ctx, budget)
	t.tr.end(id, rows)
	return rows, done
}

func kernelKind(k exec.Kernel) string {
	switch k.(type) {
	case *exec.ColumnScan:
		return kindScan
	case *exec.AggLocal, *exec.WideAggLocal, *exec.SortAggLocal:
		return kindAggLocal
	case *exec.AggMerge:
		return kindAggMerge
	case *exec.PKLookupProject, *exec.IndexLookupProject:
		return kindLookup
	default:
		return kindOther
	}
}
