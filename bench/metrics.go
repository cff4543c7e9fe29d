package main

import (
	"encoding/json"
	"strings"
)

// metricDef names one metric. This table is the single source of the
// benchmark's contract: BENCHMARK.json is generated from it
// (-manifest), every run reports exactly these names, and -compare
// applies these bounds.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
	// bound is the share of the baseline's value by which an end-to-end
	// metric may get worse before it counts as a regression. Per-layer
	// metrics have none.
	bound float64
	// exact marks simulated results and counts: they repeat bit for bit
	// per seed, so -compare demands equality between two runs of one
	// seed. (Across seeds they vary, which is what bound covers.)
	exact bool
}

// runSeconds is how long one run measures.
const runSeconds = 25

// endToEnd are the metrics a user of the system sees, reported with
// tracing off on every workload. The host-time bounds are the widest
// the contract allows: on the 2-core shared host this was written on,
// minutes-long slow phases moved the per-run minimum by up to 40 %
// (README "Noise"). The simulated metrics repeat exactly per seed; their
// bounds cover how much they move from one seed's data to the next.
var endToEnd = []metricDef{
	{name: "host_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_accesses_per_host_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "host_heap_mib", unit: "MiB", better: "lower", bound: 0.05},
	{name: "sim_throughput", unit: "1/s", better: "higher", bound: 0.02, exact: true},
	{name: "sim_p99_cycles", unit: "cycles", better: "lower", bound: 0.25, exact: true},
}

// perLayer are the metrics of single layers, reported by the traced
// run. Probe timings are host ns per operation; cachesim/serve/adapt
// counts are exact per seed.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better, exact: exact})
		}
	}
	// column: probes with the per-cache-line call pattern of
	// ColumnScan.Step, on generated 15-, 20- and 27-bit columns.
	add("ns", "lower", false,
		"column.count_in_range_ns_per_row.b15", "column.count_in_range_ns_per_row.b20", "column.count_in_range_ns_per_row.b27",
		"column.get_ns_per_row.b15", "column.get_ns_per_row.b20", "column.get_ns_per_row.b27",
		"column.dict_value_ns", "column.index_lookup_ns")
	// cachesim: one probe per access outcome, each self-verified.
	add("ns", "lower", false,
		"cachesim.access_ns.l1_hit", "cachesim.access_ns.l2_hit", "cachesim.access_ns.llc_hit",
		"cachesim.access_ns.dram_miss", "cachesim.access_ns.dram_miss_2way", "cachesim.access_ns.stream",
		"cachesim.access_ns.write_dirty", "cachesim.access_batch_ns.stream")
	// cachesim: the workload's own counters.
	add("count", "lower", true,
		"cachesim.accesses", "cachesim.l1_hits", "cachesim.l2_hits", "cachesim.llc_hits", "cachesim.llc_misses",
		"cachesim.prefetch_issued", "cachesim.prefetch_late", "cachesim.writebacks")
	add("ticks", "lower", true, "cachesim.stall_ticks", "cachesim.compute_ticks")
	add("frac", "higher", true, "cachesim.llc_hit_ratio")
	// exec: step spans of the traced repetition and Drive probes.
	add("s", "lower", false, "exec.step_s")
	add("count", "lower", true, "exec.steps", "exec.rows")
	add("frac", "lower", false,
		"exec.step_frac.scan", "exec.step_frac.agg_local", "exec.step_frac.agg_merge", "exec.step_frac.lookup", "exec.step_frac.other")
	add("ns", "lower", false,
		"exec.drive_ns_per_row.scan", "exec.drive_ns_per_row.agg_local", "exec.drive_ns_per_row.join_build", "exec.drive_ns_per_row.join_probe")
	// engine: run spans minus their plan and step children.
	add("s", "lower", false, "engine.run_s", "engine.plan_s", "engine.self_s")
	add("count", "higher", true, "engine.executions")
	add("ns", "lower", false, "engine.step_overhead_ns")
	add("1/s", "higher", true, "engine.sim_throughput.shared")
	add("ratio", "higher", true, "engine.sim_partition_gain")
	// serve: static-arm counts, the other arms' tail, and probes.
	add("count", "higher", true, "serve.arrivals", "serve.completed")
	add("count", "lower", true, "serve.dropped")
	add("queries", "lower", true, "serve.mean_depth")
	add("frac", "lower", true, "serve.group_util")
	add("cycles", "lower", true, "serve.sim_p99_cycles.shared", "serve.sim_p99_cycles.adaptive")
	add("ns", "lower", false, "serve.gen_arrivals_ns_per_arrival", "serve.dispatch_ns_per_query")
	// resctrl / adapt.
	add("count", "lower", true, "resctrl.mask_writes")
	add("ns", "lower", false, "resctrl.mask_write_ns")
	add("count", "lower", true, "adapt.transitions", "adapt.schemata_writes")
	// workload: data-set construction, by build span.
	add("s", "lower", false, "workload.build_s")
	add("frac", "lower", false, "workload.build_frac.scan", "workload.build_frac.agg", "workload.build_frac.tpch", "workload.build_frac.acdoca")
	// bench: the benchmark's own steadiness and overhead.
	add("s", "lower", false, "bench.host_median_s", "bench.host_max_s")
	add("frac", "lower", false, "bench.rep_spread_frac")
	add("MiB", "lower", false, "bench.alloc_mib_per_rep")
	add("frac", "lower", false, "bench.trace_overhead_frac")
	add("count", "lower", true, "bench.spans")
	return out
}()

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    strings.Fields("go run -C bench ."),
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
