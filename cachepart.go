// Package cachepart is a reproduction of "Accelerating Concurrent
// Workloads with CPU Cache Partitioning" (Noll, Teubner, May, Böhm —
// ICDE 2018) as a self-contained Go library.
//
// It bundles three layers:
//
//   - a simulated multi-core machine with an Intel-CAT-partitionable,
//     inclusive last-level cache, a stride prefetcher and a shared
//     DRAM bandwidth budget (internal/cachesim), programmed through a
//     Linux-resctrl-style interface (internal/resctrl);
//
//   - an in-memory columnar execution engine in the mould of the
//     paper's DBMS: dictionary-encoded bit-packed columns, a compressed
//     column scan, hash-based grouped aggregation with thread-local
//     tables, a bit-vector foreign-key join, inverted-index OLTP
//     lookups, and a job scheduler that annotates every operator job
//     with a cache usage identifier (CUID) and maps it to a CAT
//     capacity mask (internal/engine, internal/exec, internal/core);
//
//   - the paper's full evaluation: micro-benchmark sweeps (Figures
//     4-6), concurrent workloads (Figures 9-10), TPC-H co-runs
//     (Figure 11) and the S/4HANA OLTP experiments (Figures 1 and 12)
//     (internal/harness, internal/workload; cmd/cachepart runs them);
//
//   - an online feedback controller that reprograms the CAT masks from
//     cache-occupancy and memory-bandwidth telemetry every control
//     epoch — the dynamic counterpart of the static scheme, for
//     workloads whose annotations are missing or wrong
//     (internal/adapt; attach with System.EnableAdaptive).
//
// Quickstart:
//
//	params := cachepart.FastParams()
//	sys, err := cachepart.NewSystem(params)
//	if err != nil { ... }
//	scan, _ := cachepart.NewScanQuery(sys)
//	agg, _ := cachepart.NewAggQuery(sys, 10_000_000, 100_000)
//	a, b := sys.SplitCores()
//	_ = sys.SetPartitioning(true)
//	scanM, aggM, _ := sys.RunPair(scan, a, agg, b)
//
// All experiments run at a configurable scale: Params.Scale divides
// the paper machine's cache capacities and the data-structure sizes
// together, preserving normalized-throughput shapes; Scale 1 is the
// paper's 55 MiB-LLC Xeon E5-2699 v4.
package cachepart

import (
	"cachepart/internal/adapt"
	"cachepart/internal/cachesim"
	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/harness"
	"cachepart/internal/workload"
	"cachepart/internal/workload/s4"
	"cachepart/internal/workload/tpch"
)

// Core vocabulary, re-exported from the implementation packages.
type (
	// Params configures machine scale, core count, sampling sizes and
	// the simulated measurement window.
	Params = harness.Params
	// System is a simulated machine plus engine plus data space.
	System = harness.System
	// Measure is one stream's measured window: throughput, LLC hit
	// ratio, misses per instruction, DRAM bandwidth.
	Measure = harness.Measure

	// Policy is the paper's partitioning scheme: which LLC fraction
	// each job class may fill into.
	Policy = core.Policy
	// CUID is a job's cache usage identifier.
	CUID = core.CUID
	// Footprint carries data-dependent policy hints (bit-vector size).
	Footprint = core.Footprint
	// CurvePoint is a micro-benchmark sample used to derive schemes.
	CurvePoint = core.CurvePoint

	// Query plans repeated executions of one statement.
	Query = engine.Query
	// Phase is one barrier-separated stage of an execution.
	Phase = engine.Phase

	// CoreStats are the simulator's per-core performance counters.
	CoreStats = cachesim.CoreStats

	// AdaptConfig carries no settings: the online feedback controller's
	// thresholds, epoch and probation cadence are constants. It remains
	// only because System.EnableAdaptive takes one; detach with
	// System.DisableAdaptive.
	AdaptConfig = adapt.Config
	// AdaptController is an attached controller: it exposes the mask
	// transition log, schemata-write count and per-stream classes.
	AdaptController = adapt.Controller
)

// Cache usage identifiers (Section V-C of the paper).
const (
	// Sensitive jobs are cache-sensitive and keep the entire cache.
	Sensitive = core.Sensitive
	// Polluting jobs stream without reuse and are restricted to a
	// small slice of the cache.
	Polluting = core.Polluting
	// Depends jobs are classified at run time from their bit-vector
	// footprint.
	Depends = core.Depends
)

// FastParams returns test/benchmark defaults: 1/32 scale, short
// windows.
func FastParams() Params { return harness.Fast() }

// NewSystem builds a simulated system at the requested scale with
// partitioning initially disabled.
func NewSystem(p Params) (*System, error) { return harness.NewSystem(p) }

// DefaultAdaptConfig returns the empty AdaptConfig that
// System.EnableAdaptive takes; both keep their signatures only because
// the repository benchmark calls them. The controller always runs
// 100 µs control epochs, classifies streaming above 3.5 % of the
// machine's DRAM bandwidth per worker core, commits a class after two
// epochs, backs its probations off, and never confines an isolated
// query.
func DefaultAdaptConfig() AdaptConfig { return adapt.DefaultConfig() }

// DefaultPolicy returns the paper's partitioning scheme for an LLC
// geometry: polluting jobs 10%, sensitive jobs 100%, joins 10% or 60%
// by the bit-vector heuristic.
func DefaultPolicy(llcBytes uint64, llcWays int) Policy {
	return core.DefaultPolicy(llcBytes, llcWays)
}

// DeriveScheme derives a partitioning scheme from micro-benchmark
// curves of the polluting operators (the automated Section V-B).
func DeriveScheme(llcBytes uint64, llcWays int, pollutingCurves [][]CurvePoint) (Policy, error) {
	return core.DeriveScheme(llcBytes, llcWays, pollutingCurves)
}

// ClassifyCurve derives a job's cache usage identifier from its LLC
// sweep.
func ClassifyCurve(points []CurvePoint, totalWays int) (CUID, error) {
	return core.ClassifyCurve(points, totalWays)
}

// NewScanQuery builds the paper's Query 1 (column scan) data set and
// query at the system's scale.
func NewScanQuery(sys *System) (Query, error) { return harness.NewQ1(sys) }

// NewAggQuery builds Query 2 (aggregation with grouping) for
// paper-nominal distinct-value and group counts (e.g. 10_000_000
// distinct values = the 40 MiB dictionary, 100_000 groups).
func NewAggQuery(sys *System, nominalDistinctValues, nominalGroups int64) (Query, error) {
	return harness.NewQ2(sys, nominalDistinctValues, nominalGroups)
}

// NewJoinQuery builds Query 3 (foreign-key join) for a paper-nominal
// primary-key count (10^6..10^9).
func NewJoinQuery(sys *System, nominalKeys int64) (Query, error) {
	return harness.NewQ3(sys, nominalKeys)
}

// TPCH holds the generated TPC-H profile database.
type TPCH = tpch.DB

// NewTPCH generates the scaled TPC-H SF 100 profile database in the
// system's address space.
func NewTPCH(sys *System) (*TPCH, error) {
	return tpch.Load(sys.Space, sys.Rng, tpch.Spec{
		Scale:        sys.Params.Scale,
		LineitemRows: sys.Params.RowsAgg,
	})
}

// NewTPCHQuery builds TPC-H query number (1..22) as an operator
// pipeline over the database.
func NewTPCHQuery(sys *System, db *TPCH, number int) (Query, error) {
	return tpch.NewQuery(db, sys.Space, number)
}

// ACDOCA is the generated S/4HANA wide-table model.
type ACDOCA = s4.Table

// NewACDOCA generates the S/4HANA ACDOCA model in the system's space.
func NewACDOCA(sys *System, rows int) (*ACDOCA, error) {
	return s4.Load(sys.Space, sys.Rng, s4.Spec{Rows: rows, Scale: sys.Params.Scale})
}

// NewOLTPQuery builds the S/4HANA OLTP query projecting n of the
// table's big-dictionary columns (1..13).
func NewOLTPQuery(t *ACDOCA, n int) (Query, error) {
	if n < 1 {
		n = 1
	}
	if n > len(t.Big) {
		n = len(t.Big)
	}
	return s4.NewOLTPQuery(t, t.Big[:n])
}

// GenerateColumn generates a dictionary-encoded column of n uniform
// integers in [lo, hi] in the system's space, for building custom
// workloads.
func GenerateColumn(sys *System, name string, n int, lo, hi int64) (*Column, error) {
	return workload.EncodeUniformDense(sys.Space, name, sys.Rng, n, lo, hi, column.DefaultEntrySize)
}

// Column is a dictionary-encoded, bit-packed column.
type Column = column.Column
