// Command bench is the repository's benchmark: four workloads driven
// through the public API, six end-to-end metrics measured with tracing
// off, and a traced pass plus layer probes for the per-layer metrics.
// README.md in this directory describes the workloads, the metrics and
// how they interact.
//
//	go run -C bench . --workload scan_iso --seed 1 --seconds 20 --trace 0
//
// is the form BENCHMARK.json names: one workload, one pass, and as the
// last line of standard output one JSON object with the pass's metrics.
// Without --workload every workload runs both passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

// result is one pass of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Digest     string             `json:"sim_digest"`
	Reps       int                `json:"reps"`
	P99Samples int64              `json:"sim_p99_samples"`
	Attempted  int                `json:"ops_attempted"`
	Failed     int                `json:"ops_failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Quick   bool     `json:"quick"`
	Results []result `json:"results"`
}

type options struct {
	seed     int64
	seconds  float64
	quick    bool
	traceDir string
	profDir  string
}

func main() {
	var (
		workloadName  = flag.String("workload", "", "workload to run (default: all, both passes)")
		seed          = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds       = flag.Float64("seconds", runSeconds, "host seconds one pass measures")
		trace         = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass and layer probes")
		quick         = flag.Bool("quick", false, "tenth-length windows and one repetition (test suite)")
		out           = flag.String("out", "", "write the results as JSON to this file")
		traceDir      = flag.String("tracedir", "", "write the traced pass's spans as JSONL into this directory")
		profDir       = flag.String("cpuprofile", "", "write a CPU profile and a top-15 table per workload into this directory")
		compare       = flag.Bool("compare", false, "compare two -out files given as arguments: baseline.json candidate.json")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: baseline.json candidate.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, traceDir: *traceDir, profDir: *profDir}
	file := resultsFile{Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick}
	failed := 0
	run := func(w spec, traced bool) result {
		res, err := runPass(w, traced, opt)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		file.Results = append(file.Results, res)
		failed += res.Failed
		return res
	}
	var last result
	if *workloadName == "" {
		for _, w := range workloads {
			run(w, false)
			last = run(w, true)
		}
	} else {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		last = run(w, *trace == 1)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *workloadName != "" {
		fmt.Println(contractLine(last))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runPass runs one pass of a workload: untraced repetitions for the
// end-to-end metrics, or (traced) a few untraced repetitions, one traced
// repetition and the layer probes for the per-layer metrics.
func runPass(w spec, traced bool, opt options) (result, error) {
	res := result{Workload: w.name, Seed: opt.seed, Traced: traced, Metrics: map[string]float64{}}
	// A traced pass spends a quarter of its budget on untraced
	// repetitions and half on the probes; the traced repetition takes
	// the rest.
	total := time.Duration(opt.seconds * float64(time.Second))
	budget, probeBudget := total, total/2/probeCount
	if traced {
		budget = total / 4
	}
	if opt.quick {
		probeBudget = 3 * time.Millisecond
	}
	stop, err := startProfile(opt.profDir, w.name, traced)
	if err != nil {
		return res, err
	}
	reps, err := repeat(w, opt, budget)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return res, err
	}
	res.Reps = len(reps)
	first := reps[0].out
	res.Digest = fmt.Sprintf("%016x", first.digest)
	res.P99Samples = first.p99samples
	for i, r := range reps {
		res.account(fmt.Sprintf("repetition %d", i), r.out, first.digest)
	}
	if !traced {
		endToEndMetrics(res.Metrics, reps)
		return res, nil
	}

	tr := newTracer(w.name, len(reps))
	tracedRep, err := runRep(w, opt.seed, opt.quick, tr)
	if err != nil {
		return res, err
	}
	res.account("traced repetition", tracedRep.out, first.digest)
	layerMetrics(res.Metrics, reps, tracedRep)
	if opt.traceDir != "" {
		if err := tr.writeJSONL(opt.traceDir); err != nil {
			return res, err
		}
	}

	p := &prober{budget: probeBudget, values: res.Metrics}
	runProbes(p, opt.seed)
	res.Attempted += p.attempted
	res.Failed += len(p.failures)
	res.Failures = append(res.Failures, p.failures...)
	return res, nil
}

// account adds one repetition's operations to the pass: its Run* calls
// are attempted, and each of its failed checks — its own, or a
// sim_digest other than repetition 0's — fails one of them.
func (res *result) account(label string, o outcome, want uint64) {
	fails := o.failures
	if o.digest != want {
		fails = append(fails, fmt.Sprintf("sim_digest %016x differs from repetition 0's %016x", o.digest, want))
	}
	for _, f := range fails {
		res.Failures = append(res.Failures, label+": "+f)
	}
	res.Attempted += o.ops
	res.Failed += min(len(fails), o.ops)
}

// repeat runs untraced repetitions until the next one would overrun the
// budget, and at least two (one when quick).
func repeat(w spec, opt options, budget time.Duration) ([]rep, error) {
	minReps := 2
	if opt.quick {
		minReps, budget = 1, 0
	}
	var reps []rep
	start := hostNow()
	for {
		t := hostNow()
		r, err := runRep(w, opt.seed, opt.quick, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if len(reps) >= minReps && hostSince(start)+hostSince(t) > budget {
			return reps, nil
		}
	}
}

func valuesOf(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func hostSeconds(r rep) float64 { return r.host.Seconds() }

// endToEndMetrics fills the six end-to-end metrics. Host time is the
// minimum over repetitions: the program is deterministic and CPU-bound,
// so host noise only ever adds, and the minimum is the statistic that
// repeats (README "Noise"). Set-up and heap are medians. The simulated
// metrics are identical in every repetition.
func endToEndMetrics(m map[string]float64, reps []rep) {
	host := slices.Min(valuesOf(reps, hostSeconds))
	m["host_s"] = host
	m["sim_accesses_per_host_s"] = float64(reps[0].accesses()) / host
	m["setup_s"] = median(valuesOf(reps, func(r rep) float64 { return r.setup.Seconds() }))
	m["host_heap_mib"] = median(valuesOf(reps, func(r rep) float64 { return r.heapMiB }))
	m["sim_throughput"] = reps[0].out.throughput
	m["sim_p99_cycles"] = reps[0].out.p99cycles
}

// layerMetrics fills the per-layer metrics that come from the
// workload: the traced repetition's spans, the simulator's counters and
// the benchmark's own steadiness. The probes add theirs.
func layerMetrics(m map[string]float64, reps []rep, traced rep) {
	o := traced.out
	st := o.stats
	m["cachesim.accesses"] = float64(st.Reads + st.Writes)
	m["cachesim.l1_hits"] = float64(st.L1Hits)
	m["cachesim.l2_hits"] = float64(st.L2Hits)
	m["cachesim.llc_hits"] = float64(st.LLCHits)
	m["cachesim.llc_misses"] = float64(st.LLCMisses)
	m["cachesim.prefetch_issued"] = float64(st.PrefetchIssued)
	m["cachesim.prefetch_late"] = float64(st.PrefetchLate)
	m["cachesim.writebacks"] = float64(st.Writebacks)
	m["cachesim.stall_ticks"] = float64(st.StallTicks)
	m["cachesim.compute_ticks"] = float64(st.ComputeTicks)
	m["cachesim.llc_hit_ratio"] = st.LLCHitRatio()

	tot := traced.tr.totals()
	ratio := func(a, b time.Duration) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	step := tot.total[spanStep]
	m["exec.step_s"] = step.Seconds()
	m["exec.steps"] = float64(tot.count[spanStep])
	m["exec.rows"] = float64(tot.rows[spanStep])
	for _, kind := range stepKinds {
		m["exec.step_frac."+kind] = ratio(tot.total[spanStep+"."+kind], step)
	}
	m["engine.run_s"] = tot.total[spanRun].Seconds()
	m["engine.plan_s"] = tot.total[spanPlan].Seconds()
	m["engine.self_s"] = tot.self[spanRun].Seconds()
	m["engine.executions"] = float64(o.executions)
	m["engine.sim_throughput.shared"] = o.thrShared
	m["engine.sim_partition_gain"] = o.gain

	m["serve.arrivals"] = float64(o.serve.arrivals)
	m["serve.completed"] = float64(o.serve.completed)
	m["serve.dropped"] = float64(o.serve.dropped)
	m["serve.mean_depth"] = o.serve.meanDepth
	m["serve.group_util"] = o.serve.groupUtil
	m["serve.sim_p99_cycles.shared"] = o.serve.p99SharedCycles
	m["serve.sim_p99_cycles.adaptive"] = o.serve.p99AdaptiveCycles
	m["resctrl.mask_writes"] = float64(o.maskWrites)
	m["adapt.transitions"] = float64(o.transitions)
	m["adapt.schemata_writes"] = float64(o.schemata)

	var build time.Duration
	for _, what := range buildKinds {
		build += tot.total[spanBuildPrefix+what]
	}
	m["workload.build_s"] = build.Seconds()
	for _, what := range buildKinds {
		m["workload.build_frac."+what] = ratio(tot.total[spanBuildPrefix+what], build)
	}

	hosts := valuesOf(reps, hostSeconds)
	lo, hi := slices.Min(hosts), slices.Max(hosts)
	m["bench.host_median_s"] = median(hosts)
	m["bench.host_max_s"] = hi
	m["bench.rep_spread_frac"] = (hi - lo) / lo
	m["bench.alloc_mib_per_rep"] = median(valuesOf(reps, func(r rep) float64 { return r.allocMiB }))
	m["bench.trace_overhead_frac"] = traced.host.Seconds()/lo - 1
	m["bench.spans"] = float64(traced.tr.n)
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of a pass by name, with its unit.
func printResult(res result) {
	pass := "end-to-end pass, tracing off"
	if res.Traced {
		pass = "traced pass and layer probes"
	}
	fmt.Printf("== %s  seed %d  %s  (%d untraced repetitions)\n", res.Workload, res.Seed, pass, res.Reps)
	for _, d := range defsFor(res.Traced) {
		fmt.Printf("  %-44s %18.6g %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	fmt.Printf("  %-44s %18d\n", "sim_p99_samples", res.P99Samples)
	fmt.Printf("  %-44s %18s\n", "sim_digest", res.Digest)
	fmt.Printf("  %-44s %18d\n", "ops_attempted", res.Attempted)
	fmt.Printf("  %-44s %18d\n", "ops_failed", res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// contractLine renders the one-line JSON object the driver reads.
func contractLine(res result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defsFor(res.Traced) {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(b)
}
