// Package harness assembles the simulated system and regenerates every
// table and figure of the paper's evaluation: the isolated operator
// sweeps of Figures 4-6, the concurrent experiments of Figures 9-10,
// the TPC-H co-run of Figure 11 and the S/4HANA OLTP experiments of
// Figures 1 and 12.
//
// All experiments support proportional downscaling: Scale divides the
// cache capacities and the paper's data-structure sizes together, so
// normalized-throughput curves keep their shape while simulations run
// orders of magnitude faster. Scale 1 reproduces the paper's absolute
// sizes (55 MiB LLC, 4/40/400 MiB dictionaries, 10^6..10^9 keys).
package harness

import (
	"fmt"

	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/memory"
	"cachepart/internal/workload"
)

// Params configures an experiment run.
type Params struct {
	// Scale divides the paper's nominal sizes (cache capacities,
	// dictionary cardinalities, group counts, key counts). 1 is the
	// paper's machine.
	Scale int
	// Cores is the simulated physical core count (paper: 22).
	Cores int
	// Ways lists the LLC way limits swept by the micro-benchmarks;
	// defaults to {2, 4, ..., 20}.
	Ways []int
	// Duration is the simulated measurement time per point in seconds.
	Duration float64
	// Rows per execution for the scan / aggregation / join-probe
	// inputs (already scaled; these are sampling sizes, not the
	// paper's 10^9).
	RowsScan, RowsAgg, RowsProbe int
	// Seed makes runs reproducible.
	Seed int64

	// DictSweep, GroupSweep and KeySweep override the paper-nominal
	// parameter lists of Figures 5/9 (dictionary cardinalities, group
	// counts) and 6/10 (primary-key counts). Empty uses the paper's
	// values; tests and quick looks pass subsets.
	DictSweep  []int64
	GroupSweep []int64
	KeySweep   []int64

	// Serve and Overload tune the FigServe and FigOverload sweeps; the
	// zero value of each uses that sweep's defaults.
	Serve    ServeOptions
	Overload OverloadOptions
}

// Default returns parameters tuned for the command-line tool: 1/8 of
// the paper machine, a few seconds of simulation per figure.
func Default() Params {
	return Params{
		Scale:     8,
		Cores:     22,
		Duration:  0.008,
		RowsScan:  1 << 25, // scan input ~70 MB >> scaled 6.9 MiB LLC
		RowsAgg:   1 << 21,
		RowsProbe: 1 << 21,
		Seed:      1,
	}
}

// Fast returns parameters for tests and benchmarks: 1/32 scale and
// short windows.
func Fast() Params {
	return Params{
		Scale:     32,
		Cores:     8,
		Ways:      []int{2, 4, 8, 12, 16, 20},
		Duration:  0.003,
		RowsScan:  1 << 22, // scan input ~8 MB >> scaled 1.7 MiB LLC
		RowsAgg:   1 << 20,
		RowsProbe: 1 << 20,
		Seed:      1,
	}
}

func (p *Params) setDefaults() error {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Cores <= 0 {
		p.Cores = 22
	}
	if p.Cores > 32 {
		return fmt.Errorf("harness: %d cores exceed simulator limit", p.Cores)
	}
	if len(p.Ways) == 0 {
		for w := 2; w <= 20; w += 2 {
			p.Ways = append(p.Ways, w)
		}
	}
	if p.Duration <= 0 {
		p.Duration = 0.008
	}
	if p.RowsScan <= 0 {
		p.RowsScan = 1 << 20
	}
	if p.RowsAgg <= 0 {
		p.RowsAgg = 1 << 20
	}
	if p.RowsProbe <= 0 {
		p.RowsProbe = 1 << 20
	}
	return nil
}

// dictSweep returns the Figure 5/9 dictionary cardinalities.
func (p Params) dictSweep() []int64 {
	if len(p.DictSweep) > 0 {
		return p.DictSweep
	}
	return fig5Dictionaries()
}

// groupSweep returns the Figure 5/9/10 group counts.
func (p Params) groupSweep() []int64 {
	if len(p.GroupSweep) > 0 {
		return p.GroupSweep
	}
	return fig5Groups()
}

// keySweep returns the Figure 6 primary-key counts.
func (p Params) keySweep() []int64 {
	if len(p.KeySweep) > 0 {
		return p.KeySweep
	}
	return fig6Keys()
}

// ScaleN divides a paper-nominal cardinality by the scale factor,
// never below 1.
func (p Params) ScaleN(n int64) int64 {
	s := n / int64(p.Scale)
	if s < 1 {
		return 1
	}
	return s
}

// System bundles the simulated machine, the engine and the address
// space data sets live in.
type System struct {
	Params  Params
	Space   *memory.Space
	Machine *cachesim.Machine
	Engine  *engine.Engine
	Rng     *workload.Rand
}

// NewSystem builds a machine at the requested scale with partitioning
// initially disabled.
func NewSystem(p Params) (*System, error) {
	if err := p.setDefaults(); err != nil {
		return nil, err
	}
	cfg := cachesim.DefaultConfig().Scaled(p.Scale)
	cfg.Cores = p.Cores
	m, err := cachesim.New(cfg)
	if err != nil {
		return nil, err
	}
	pol := core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways)
	e, err := engine.New(m, pol)
	if err != nil {
		return nil, err
	}
	return &System{
		Params:  p,
		Space:   memory.NewSpace(),
		Machine: m,
		Engine:  e,
		Rng:     workload.NewRand(p.Seed),
	}, nil
}

// SetPartitioning toggles the paper's scheme.
func (s *System) SetPartitioning(enabled bool) error {
	pol := s.Engine.Policy()
	pol.Enabled = enabled
	return s.Engine.SetPolicy(pol)
}

// LLCBytes reports the scaled LLC capacity.
func (s *System) LLCBytes() uint64 { return s.Machine.Config().LLC.Size }

// AllCores returns core ids [0, n).
func (s *System) AllCores() []int {
	out := make([]int, s.Machine.Cores())
	for i := range out {
		out[i] = i
	}
	return out
}

// SplitCores halves the cores for a co-run: the first half for stream
// A, the second for stream B.
func (s *System) SplitCores() (a, b []int) {
	n := s.Machine.Cores()
	all := s.AllCores()
	return all[:n/2], all[n/2:]
}

// Measure summarises one stream's window: throughput plus the PCM-style
// counters the paper reports.
type Measure struct {
	Throughput float64 // counted rows per simulated second
	Executions int64
	HitRatio   float64 // LLC hit ratio
	MPI        float64 // LLC misses per instruction
	Bandwidth  float64 // DRAM bytes per second (misses + prefetch + writebacks)
	// P50 and P99 are end-to-end response-time percentiles in
	// simulated seconds of the executions completed in the window
	// (zero when none completed — long statements sampled mid-flight).
	P50 float64
	P99 float64
	// Retries and Degraded surface the stream's control-plane fault
	// accounting: retried transient faults and placements that fell
	// back to the root group (see System.EnableChaos). Zero without
	// fault injection.
	Retries  int64
	Degraded int64
}

// measureOf converts a stream result on the system's machine clock.
func (s *System) measureOf(r engine.StreamResult) Measure {
	m := Measure{
		Throughput: r.Throughput,
		Executions: r.Executions,
		HitRatio:   r.Stats.LLCHitRatio(),
		MPI:        r.Stats.LLCMissesPerInstruction(),
		Bandwidth:  float64(r.Stats.DRAMBytes()) / r.WindowSeconds,
		Retries:    r.Retries,
		Degraded:   r.Degraded,
	}
	if len(r.Queries) > 0 {
		m.P50 = s.Machine.Seconds(r.Percentile(0.50))
		m.P99 = s.Machine.Seconds(r.Percentile(0.99))
	}
	return m
}

// runOptions builds the engine options for this harness.
func (s *System) runOptions() engine.RunOptions {
	return engine.RunOptions{
		Duration: s.Params.Duration,
		Seed:     s.Params.Seed,
	}
}

// RunIsolated measures one query alone on the given cores.
func (s *System) RunIsolated(q engine.Query, cores []int) (Measure, error) {
	res, err := s.Engine.Run([]engine.StreamSpec{{Query: q, Cores: cores}}, s.runOptions())
	if err != nil {
		return Measure{}, err
	}
	return s.measureOf(res[0]), nil
}

// RunPair measures two queries co-running on disjoint core sets.
func (s *System) RunPair(qa engine.Query, ca []int, qb engine.Query, cb []int) (Measure, Measure, error) {
	res, err := s.Engine.Run([]engine.StreamSpec{
		{Query: qa, Cores: ca},
		{Query: qb, Cores: cb},
	}, s.runOptions())
	if err != nil {
		return Measure{}, Measure{}, err
	}
	return s.measureOf(res[0]), s.measureOf(res[1]), nil
}

// Q1Spec instantiates the paper's Query 1 data set at scale.
func (p Params) Q1Spec() workload.Q1Spec {
	return workload.Q1Spec{Rows: p.RowsScan, Distinct: p.ScaleN(1_000_000)}
}

// Q2Spec instantiates Query 2 at scale for the given paper-nominal
// distinct-value and group counts.
func (p Params) Q2Spec(nominalDistinctV, nominalGroups int64) workload.Q2Spec {
	return workload.Q2Spec{
		Rows:      p.RowsAgg,
		DistinctV: p.ScaleN(nominalDistinctV),
		Groups:    p.ScaleN(nominalGroups),
	}
}

// Q3Spec instantiates Query 3 at scale for the given paper-nominal
// primary-key count.
func (p Params) Q3Spec(nominalKeys int64) workload.Q3Spec {
	return workload.Q3Spec{
		ProbeRows: p.RowsProbe,
		Keys:      p.ScaleN(nominalKeys),
		PaperKeys: nominalKeys,
	}
}
