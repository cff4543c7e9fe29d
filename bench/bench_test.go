package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cachepart"
	"cachepart/internal/engine"
	"cachepart/internal/memory"
)

var quickOpt = options{seed: 1, seconds: 1, quick: true}

// TestQuickPassesEmitEveryMetric runs both passes of every workload in
// the quick configuration and checks the contract: every metric
// BENCHMARK.json names is reported exactly once per pass, finite, under
// a well-formed name, and no operation fails.
func TestQuickPassesEmitEveryMetric(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runPass(w, traced, quickOpt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			defs := defsFor(traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d defined", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not reported", w.name, traced, d.name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, d.name, v)
				case !nameRE.MatchString(d.name):
					t.Errorf("metric name %q is malformed", d.name)
				case !traced && v <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v)
				}
			}
			if traced {
				// The layers a workload bypasses report zero.
				served := w.name == "serve_mix"
				for _, name := range []string{"serve.arrivals", "serve.completed", "adapt.transitions", "adapt.schemata_writes"} {
					if got := res.Metrics[name] != 0; got != served {
						t.Errorf("%s: %s = %v", w.name, name, res.Metrics[name])
					}
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
				t.Fatalf("contract line: %v", err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: contract line %+v", w.name, traced, line)
			}
		}
	}
}

func TestProbeCount(t *testing.T) {
	p := &prober{budget: time.Millisecond, values: map[string]float64{}}
	runProbes(p, 1)
	if p.attempted != probeCount {
		t.Errorf("runProbes made %d measurements, probeCount is %d", p.attempted, probeCount)
	}
	if len(p.failures) != 0 {
		t.Errorf("probe failures: %v", p.failures)
	}
}

// TestTracedDigestEqualsUntraced pins that the wrappers observe and do
// not perturb: the traced repetition reproduces the untraced simulated
// results bit for bit.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, w := range workloads {
		plain, err := runRep(w, 3, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runRep(w, 3, true, newTracer(w.name, 0))
		if err != nil {
			t.Fatal(err)
		}
		if plain.out.digest != traced.out.digest {
			t.Errorf("%s: traced digest %x, untraced %x", w.name, traced.out.digest, plain.out.digest)
		}
		if traced.tr.n == 0 || len(traced.tr.open) != 0 {
			t.Errorf("%s: %d spans recorded, %d left open", w.name, traced.tr.n, len(traced.tr.open))
		}
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built tree:
//
//	rep [0,100]
//	  run [10,90]
//	    plan [10,15]
//	    step.scan [20,50] rows 7
//	    step.scan [50,70] rows 3
//	    step.agg_local [70,80]
func TestSelfTime(t *testing.T) {
	tr := newTracer("t", 0)
	type node struct {
		name, kind string
		start, end int64
		rows       int
		children   []node
	}
	var build func(n node)
	build = func(n node) {
		id := tr.begin(tr.intern(n.name), tr.intern(n.kind))
		for _, c := range n.children {
			build(c)
		}
		tr.end(id, n.rows)
		tr.at(id).start, tr.at(id).end = n.start, n.end
	}
	build(node{name: spanRep, start: 0, end: 100, children: []node{
		{name: spanRun, start: 10, end: 90, children: []node{
			{name: spanPlan, start: 10, end: 15},
			{name: spanStep, kind: kindScan, start: 20, end: 50, rows: 7},
			{name: spanStep, kind: kindScan, start: 50, end: 70, rows: 3},
			{name: spanStep, kind: kindAggLocal, start: 70, end: 80},
		}},
	}})
	tot := tr.totals()
	check := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}
	check("rep self", int64(tot.self[spanRep]), 20)
	check("run total", int64(tot.total[spanRun]), 80)
	check("run self", int64(tot.self[spanRun]), 80-5-30-20-10)
	check("step total", int64(tot.total[spanStep]), 60)
	check("step.scan total", int64(tot.total[spanStep+"."+kindScan]), 50)
	check("step.scan rows", tot.rows[spanStep+"."+kindScan], 10)
	check("step count", tot.count[spanStep], 3)
	check("leaf self", int64(tot.self[spanPlan]), 5)

	dir := t.TempDir()
	if err := tr.writeJSONL(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != int(tr.n) {
		t.Errorf("%d JSONL lines for %d spans", lines, tr.n)
	}
}

type plainQuery struct{}

func (plainQuery) Name() string { return "plain" }
func (plainQuery) Plan(cores int, _ *rand.Rand) ([]cachepart.Phase, error) {
	return (&noopQuery{rows: 8}).Plan(cores, nil)
}

type warmQuery struct{ plainQuery }

func (warmQuery) PrewarmRegions(cores int) []memory.Region {
	return []memory.Region{{Name: "warm", Size: uint64(cores)}}
}

func TestTraceQueryForwardsPrewarmer(t *testing.T) {
	if q := traceQuery(nil, plainQuery{}); q != (plainQuery{}) {
		t.Errorf("nil tracer wrapped the query: %T", q)
	}
	tr := newTracer("t", 0)
	if _, ok := traceQuery(tr, plainQuery{}).(engine.Prewarmer); ok {
		t.Error("wrapper invented a Prewarmer")
	}
	pw, ok := traceQuery(tr, warmQuery{}).(engine.Prewarmer)
	if !ok {
		t.Fatal("wrapper dropped the Prewarmer")
	}
	if r := pw.PrewarmRegions(3); len(r) != 1 || r[0].Size != 3 {
		t.Errorf("forwarded regions %+v", r)
	}
	phases, err := traceQuery(tr, warmQuery{}).Plan(2, nil)
	if err != nil || len(phases) != 1 || len(phases[0].Kernels) != 2 {
		t.Fatalf("Plan: %v %+v", err, phases)
	}
	if _, ok := phases[0].Kernels[0].(*tracedKernel); !ok {
		t.Errorf("kernel not wrapped: %T", phases[0].Kernels[0])
	}
	if tot := tr.totals(); tot.count[spanPlan] != 1 {
		t.Errorf("%d plan spans", tot.count[spanPlan])
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json generated, not
// transcribed, and inside the limits the driver enforces.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better %q", d.name, d.better)
		}
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(want) > 64<<10 {
		t.Error("manifest exceeds the contract's limits")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host, thr float64, digest string) string {
		f := resultsFile{Seed: 1, Results: []result{{Workload: "scan_iso", Digest: digest,
			Metrics: map[string]float64{"host_s": host, "sim_accesses_per_host_s": 1 / host, "setup_s": 1,
				"host_heap_mib": 1, "sim_throughput": thr, "sim_p99_cycles": 5}}}}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1.00, 100, "d")
	for _, tc := range []struct {
		name   string
		host   float64
		thr    float64
		digest string
		ok     bool
		want   string
	}{
		{"same", 1.00, 100, "d", true, ""},
		{"within bound", 1.20, 100, "d", true, ""},
		{"faster", 0.50, 100, "d", true, ""},
		{"regressed", 1.30, 100, "d", false, "REGRESSION"},
		{"model changed", 1.00, 101, "e", false, "DIFFERS"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write("cand.json", tc.host, tc.thr, tc.digest))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, output:\n%s", tc.name, ok, out.String())
		}
	}
}
