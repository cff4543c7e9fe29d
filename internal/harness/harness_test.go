package harness

import (
	"bytes"
	"strings"
	"testing"

	"cachepart/internal/core"
	"cachepart/internal/workload/s4"
)

// tinyParams keeps shape tests fast: 1/64 scale, 8 cores, 3 sweep
// points.
func tinyParams() Params {
	return Params{
		Scale:     64,
		Cores:     8,
		Ways:      []int{2, 8, 20},
		Duration:  0.002,
		RowsScan:  1 << 21,
		RowsAgg:   1 << 19,
		RowsProbe: 1 << 19,
		Seed:      1,
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	if err := p.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if p.Scale != 1 || p.Cores != 22 || len(p.Ways) == 0 {
		t.Errorf("defaults: %+v", p)
	}
	bad := Params{Cores: 64}
	if err := bad.setDefaults(); err == nil {
		t.Error("64 cores accepted")
	}
}

func TestScaleN(t *testing.T) {
	p := Params{Scale: 8}
	if got := p.ScaleN(1_000_000); got != 125_000 {
		t.Errorf("ScaleN = %d", got)
	}
	if got := p.ScaleN(3); got != 1 {
		t.Errorf("ScaleN small = %d, want clamp to 1", got)
	}
}

func TestNewSystemAndCores(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.AllCores()); got != 8 {
		t.Errorf("AllCores = %d", got)
	}
	a, b := sys.SplitCores()
	if len(a) != 4 || len(b) != 4 {
		t.Errorf("SplitCores = %d/%d", len(a), len(b))
	}
	for _, c := range b {
		for _, c2 := range a {
			if c == c2 {
				t.Fatal("core sets overlap")
			}
		}
	}
	if sys.LLCBytes() == 0 {
		t.Error("zero LLC")
	}
	olap, oltp := sys.oltpCoreSplit()
	if len(oltp) != 2 || len(olap) != 6 {
		t.Errorf("oltpCoreSplit = %d/%d", len(olap), len(oltp))
	}
}

func TestSpecHelpers(t *testing.T) {
	p := tinyParams()
	q1 := p.Q1Spec()
	if q1.Rows != p.RowsScan || q1.Distinct != p.ScaleN(1_000_000) {
		t.Errorf("Q1Spec = %+v", q1)
	}
	q2 := p.Q2Spec(10_000_000, 100_000)
	if q2.DistinctV != p.ScaleN(10_000_000) || q2.Groups != p.ScaleN(100_000) {
		t.Errorf("Q2Spec = %+v", q2)
	}
	q3 := p.Q3Spec(100_000_000)
	if q3.Keys != p.ScaleN(100_000_000) || q3.PaperKeys != 100_000_000 {
		t.Errorf("Q3Spec = %+v", q3)
	}
}

// TestFig4Flat asserts the paper's headline for the scan: hardly
// sensitive to cache size.
func TestFig4Flat(t *testing.T) {
	t.Parallel()
	r, err := Fig4(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Points
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.Norm < 0.85 {
			t.Errorf("scan at %d ways degraded to %.3f — should be flat", pt.Ways, pt.Norm)
		}
	}
	// The x-axis carries paper MiB labels.
	if pts[len(pts)-1].LLCMiB != 55.0 {
		t.Errorf("full cache labelled %.1f MiB, want 55", pts[len(pts)-1].LLCMiB)
	}
	// Section V-B derives the scheme from this sweep.
	if r.Scheme.CUID != core.Polluting {
		t.Errorf("flat scan classified as %v, want polluting", r.Scheme.CUID)
	}
	var out bytes.Buffer
	PrintFig4(&out, r)
	checkGolden(t, "fig4", out.Bytes())
}

// TestAggregationSensitive asserts Figure 5's headline: aggregation
// over the 40 MiB dictionary degrades markedly with a small cache.
func TestAggregationSensitive(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQ2(sys, 10_000_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sys.sweepWays(q2, sys.AllCores())
	if err != nil {
		t.Fatal(err)
	}
	small, full := pts[0], pts[len(pts)-1]
	if full.Norm != 1.0 && small.Norm != 1.0 {
		// One of the endpoints should be the normalisation anchor.
		t.Errorf("normalisation lost: %+v", pts)
	}
	if small.Norm > 0.8*full.Norm {
		t.Errorf("aggregation at 2 ways = %.3f of full cache — not sensitive enough", small.Norm/full.Norm)
	}
	// The scan is much flatter than this (contrast with TestFig4Flat).
}

// TestJoinSensitivityByKeyCount asserts Figure 6's headline: the join
// is sensitive around 10^8 keys and much less at 10^7.
func TestJoinSensitivityByKeyCount(t *testing.T) {
	t.Parallel()
	p := tinyParams()
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	drop := func(keys int64) float64 {
		q3, err := NewQ3(sys, keys)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := sys.sweepWays(q3, sys.AllCores())
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].Norm / pts[len(pts)-1].Norm
	}
	mid := drop(10_000_000)   // bit vector far below LLC
	knee := drop(100_000_000) // bit vector comparable to LLC
	if knee >= mid {
		t.Errorf("join sensitivity: P=1e8 ratio %.3f should be below P=1e7 ratio %.3f", knee, mid)
	}
	if knee > 0.9 {
		t.Errorf("join at 1e8 keys not sensitive: %.3f", knee)
	}
}

// TestPartitioningHelpsCoRun asserts the paper's core result (Figure
// 9): restricting the scan to 10% improves the sensitive aggregation
// and does not hurt the scan.
func TestPartitioningHelpsCoRun(t *testing.T) {
	t.Parallel()
	p := tinyParams()
	p.Duration = 0.003
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := NewQ1(sys)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQ2(sys, 10_000_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.SplitCores()
	row, err := sys.runPairArms("G=1e4", q1, a, q2, b, sys.partitionArms())
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := row.Arm("shared")
	part, _ := row.Arm("partitioned")
	if shared.NormB >= 0.95 {
		t.Errorf("aggregation unaffected by pollution (%.3f) — experiment not discriminating", shared.NormB)
	}
	if part.NormB < shared.NormB*1.1 {
		t.Errorf("partitioning should improve the aggregation: %.3f -> %.3f", shared.NormB, part.NormB)
	}
	if part.NormA < shared.NormA*0.9 {
		t.Errorf("partitioning hurt the scan: %.3f -> %.3f", shared.NormA, part.NormA)
	}
	// Partitioning restores the aggregation's hit ratio.
	if part.B.HitRatio <= shared.B.HitRatio {
		t.Errorf("hit ratio not restored: %.3f -> %.3f", shared.B.HitRatio, part.B.HitRatio)
	}
}

// TestOLTPLatencyUnderPollution: cache partitioning lowers the OLTP
// query's end-to-end response time (the quantity the paper actually
// measures) as well as raising its throughput.
func TestOLTPLatencyUnderPollution(t *testing.T) {
	t.Parallel()
	p := tinyParams()
	p.Duration = 0.003
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	table, err := loadS4(sys)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := NewQ1(sys)
	if err != nil {
		t.Fatal(err)
	}
	oltp, err := s4.NewOLTPQuery(table, table.Big)
	if err != nil {
		t.Fatal(err)
	}
	olap, pool := sys.oltpCoreSplit()

	if err := sys.SetPartitioning(false); err != nil {
		t.Fatal(err)
	}
	_, shared, err := sys.RunPair(q1, olap, oltp, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPartitioning(true); err != nil {
		t.Fatal(err)
	}
	_, part, err := sys.RunPair(q1, olap, oltp, pool)
	if err != nil {
		t.Fatal(err)
	}
	if shared.P50 <= 0 || part.P50 <= 0 {
		t.Fatalf("missing latency percentiles: shared %v, partitioned %v", shared.P50, part.P50)
	}
	if part.P50 >= shared.P50 {
		t.Errorf("partitioning should lower OLTP median latency: %.2fus -> %.2fus",
			shared.P50*1e6, part.P50*1e6)
	}
}

// TestFig10SchemeContrast asserts Figure 10b's lesson: restricting a
// cache-sensitive join (P=1e8) to 10% hurts it, while 60% is safe.
func TestFig10SchemeContrast(t *testing.T) {
	t.Parallel()
	p := tinyParams()
	p.Duration = 0.003
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQ2(sys, 10_000_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := NewQ3(sys, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.SplitCores()
	row, err := sys.runPairArms("P=1e8", q2, a, q3, b, []arm{
		{"shared", func() error { return sys.SetPartitioning(false) }},
		{"join10", func() error { return sys.setJoinFraction(0.10) }},
		{"join60", func() error { return sys.setJoinFraction(0.60) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	j10, _ := row.Arm("join10")
	j60, _ := row.Arm("join60")
	if j60.NormB < j10.NormB {
		t.Errorf("join at 60%% (%.3f) should beat join at 10%% (%.3f) for a comparable bit vector",
			j60.NormB, j10.NormB)
	}
}

// TestPolicyAutoMatchesHeuristic checks that the default policy picks
// the 60% mask for the comparable bit vector and 10% otherwise, via
// the live engine.
func TestPolicyAutoMatchesHeuristic(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	pol := sys.Engine.Policy()
	pol.Enabled = true
	// Bit vector bytes at this scale: keys/scale/8.
	bvBytes := func(keys int64) uint64 { return uint64(sys.Params.ScaleN(keys)) / 8 }
	small := pol.MaskFor(core.Depends, core.Footprint{BitVectorBytes: bvBytes(1_000_000)})
	comp := pol.MaskFor(core.Depends, core.Footprint{BitVectorBytes: bvBytes(100_000_000)})
	if small.Ways() >= comp.Ways() {
		t.Errorf("heuristic masks: small %v, comparable %v", small, comp)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var sb strings.Builder
	PrintFig4(&sb, Fig4Result{Points: []WayPoint{{Ways: 2, LLCMiB: 5.5, Norm: 0.5}}})
	printGroupSeries(&sb, "t", []GroupSeries{{Label: "a", Points: []WayPoint{{Ways: 2, LLCMiB: 5.5, Norm: 1}}}})
	PrintFig5(&sb, []CurveSet{{Label: "p", Series: []GroupSeries{{Label: "a", Points: []WayPoint{{Ways: 2}}}}}})
	PrintFig12(&sb, []PairRow{{
		Label: "x", NameA: "a", NameB: "b",
		Arms: []PairArm{{Name: "shared", NormA: 1, NormB: 0.5}, {Name: "partitioned", NormA: 1, NormB: 0.7}},
	}})
	out := sb.String()
	for _, want := range []string{"ways", "LLC", "shared", "partitioned", "isolated"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
	// Empty inputs do not panic.
	printGroupSeries(&sb, "empty", nil)
	printPairRows(&sb, "empty", nil)
	PrintFig12(&sb, nil)
}

// TestFigCoSchedule exercises the Section VIII sketch: the cache-aware
// schedule (with partitioning) should not be worse than the naive
// mixed schedule without it.
func TestFigCoSchedule(t *testing.T) {
	t.Parallel()
	p := tinyParams()
	row, err := FigCoSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	PrintCoSchedule(&out, row)
	checkGolden(t, "cosched", out.Bytes())
	for name, v := range map[string]float64{
		"mixed": row.Mixed, "mixed+part": row.MixedPartitioned,
		"aware": row.Aware, "aware+part": row.AwarePartitioned,
	} {
		if v <= 0 || v > 1.5 {
			t.Errorf("%s = %v out of plausible range", name, v)
		}
	}
	// Some cache-aware configuration must beat the naive mixed
	// schedule; empirically it is mixing plus partitioning, matching
	// the paper's conclusion that partitioning is the better lever.
	best := row.MixedPartitioned
	if row.Aware > best {
		best = row.Aware
	}
	if row.AwarePartitioned > best {
		best = row.AwarePartitioned
	}
	if best < row.Mixed {
		t.Errorf("no configuration beats naive mixed: %+v", row)
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 {
		t.Error("ratio by zero should be 0")
	}
	if ratio(3, 2) != 1.5 {
		t.Error("ratio wrong")
	}
}

func TestSciLabel(t *testing.T) {
	cases := map[int64]string{
		100:       "1e2",
		1_000_000: "1e6",
		42:        "42",
		1:         "1",
		2500:      "2500",
	}
	for in, want := range cases {
		if got := sciLabel(in); got != want {
			t.Errorf("sciLabel(%d) = %q, want %q", in, got, want)
		}
	}
}
