package cachepart

import "testing"

func tinyParams() Params {
	p := FastParams()
	p.Scale = 64
	p.Cores = 8
	p.Duration = 0.002
	p.RowsScan = 1 << 20
	p.RowsAgg = 1 << 18
	p.RowsProbe = 1 << 18
	return p
}

func TestNewSystemFacade(t *testing.T) {
	sys, err := NewSystem(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.Cores() != 8 {
		t.Errorf("cores = %d", sys.Machine.Cores())
	}
	if err := sys.SetPartitioning(true); err != nil {
		t.Fatal(err)
	}
	if !sys.Engine.Policy().Enabled {
		t.Error("partitioning not enabled")
	}
}

func TestQueriesThroughFacade(t *testing.T) {
	sys, err := NewSystem(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewScanQuery(sys)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggQuery(sys, 10_000_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	join, err := NewJoinQuery(sys, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.SplitCores()
	m, err := sys.RunIsolated(scan, a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 0 {
		t.Error("scan made no progress")
	}
	ma, mb, err := sys.RunPair(agg, a, join, b)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Throughput <= 0 || mb.Throughput <= 0 {
		t.Error("co-run made no progress")
	}
}

func TestTPCHFacade(t *testing.T) {
	p := tinyParams()
	p.RowsAgg = 40_000
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewTPCH(sys)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewTPCHQuery(sys, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunIsolated(q, sys.AllCores())
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 0 {
		t.Error("TPC-H Q1 made no progress")
	}
	if _, err := NewTPCHQuery(sys, db, 99); err == nil {
		t.Error("query 99 accepted")
	}
}

func TestACDOCAFacade(t *testing.T) {
	sys, err := NewSystem(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	acdoca, err := NewACDOCA(sys, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	oltp, err := NewOLTPQuery(acdoca, 13)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.RunIsolated(oltp, sys.AllCores()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions == 0 {
		t.Error("no OLTP executions")
	}
	// Clamping of the projection width.
	if _, err := NewOLTPQuery(acdoca, 99); err != nil {
		t.Errorf("clamped projection rejected: %v", err)
	}
	if _, err := NewOLTPQuery(acdoca, 0); err != nil {
		t.Errorf("clamped projection rejected: %v", err)
	}
}

func TestPolicyFacade(t *testing.T) {
	pol := DefaultPolicy(55<<20, 20)
	pol.Enabled = true
	if got := pol.MaskFor(Polluting, Footprint{}); got != 0x3 {
		t.Errorf("polluting mask = %v", got)
	}
	if got := pol.MaskFor(Sensitive, Footprint{}); got != 0xfffff {
		t.Errorf("sensitive mask = %v", got)
	}
	curve := []CurvePoint{{Ways: 1, Throughput: 1}, {Ways: 20, Throughput: 1}}
	cuid, err := ClassifyCurve(curve, 20)
	if err != nil || cuid != Polluting {
		t.Errorf("ClassifyCurve = %v, %v", cuid, err)
	}
	derived, err := DeriveScheme(55<<20, 20, [][]CurvePoint{curve})
	if err != nil {
		t.Fatal(err)
	}
	derived.Enabled = true
	if derived.MaskFor(Polluting, Footprint{}) != 0x3 {
		t.Error("derived scheme mask wrong")
	}
}

func TestGenerateColumn(t *testing.T) {
	sys, err := NewSystem(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	col, err := GenerateColumn(sys, "custom", 1000, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if col.Rows() != 1000 {
		t.Errorf("rows = %d", col.Rows())
	}
	for i := 0; i < 1000; i += 111 {
		if v := col.Value(i); v < 5 || v > 50 {
			t.Fatalf("value %d out of range", v)
		}
	}
	// 2^32 values do not fit 32-bit codes: an error, not a panic.
	if _, err := GenerateColumn(sys, "wide", 1000, 0, 1<<32-1); err == nil {
		t.Error("a column over [0, 2^32-1] was generated")
	}
}
