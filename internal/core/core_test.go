package core

import (
	"testing"

	"cachepart/internal/cat"
)

const (
	llc55  = 55 << 20
	ways20 = 20
)

func paperPolicy(enabled bool) Policy {
	p := DefaultPolicy(llc55, ways20)
	p.Enabled = enabled
	return p
}

func TestCUIDString(t *testing.T) {
	for c, want := range map[CUID]string{
		Unset: "unset", Sensitive: "sensitive", Polluting: "polluting", Depends: "depends",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if got := CUID(42).String(); got != "CUID(42)" {
		t.Errorf("unknown CUID = %q", got)
	}
}

func TestPolicyDisabledAlwaysFull(t *testing.T) {
	p := paperPolicy(false)
	for _, cuid := range []CUID{Sensitive, Polluting, Depends} {
		if got := p.MaskFor(cuid, Footprint{}); got != 0xfffff {
			t.Errorf("disabled policy MaskFor(%v) = %v, want full", cuid, got)
		}
	}
}

func TestPaperMasks(t *testing.T) {
	p := paperPolicy(true)
	// Section V-C: "0x3" for (i), "0xfffff" for (ii),
	// "0x3" or "0xfff" for (iii).
	if got := p.MaskFor(Polluting, Footprint{}); got != 0x3 {
		t.Errorf("polluting mask = %v, want 0x3", got)
	}
	if got := p.MaskFor(Sensitive, Footprint{}); got != 0xfffff {
		t.Errorf("sensitive mask = %v, want 0xfffff", got)
	}
	// 10^6 keys -> 125 KB bit vector: fits L2, polluting -> 0x3.
	small := Footprint{BitVectorBytes: 125_000}
	if got := p.MaskFor(Depends, small); got != 0x3 {
		t.Errorf("small-vector join mask = %v, want 0x3", got)
	}
	// 10^8 keys -> 12.5 MB: comparable to 55 MiB LLC -> 0xfff.
	comparable := Footprint{BitVectorBytes: 12_500_000}
	if got := p.MaskFor(Depends, comparable); got != 0xfff {
		t.Errorf("comparable-vector join mask = %v, want 0xfff", got)
	}
	// 10^9 keys -> 125 MB: exceeds the LLC -> polluting again.
	huge := Footprint{BitVectorBytes: 125_000_000}
	if got := p.MaskFor(Depends, huge); got != 0x3 {
		t.Errorf("huge-vector join mask = %v, want 0x3", got)
	}
}

func TestDependsSensitiveBand(t *testing.T) {
	p := paperPolicy(true)
	cases := []struct {
		bytes uint64
		want  bool
	}{
		{125_000, false},     // 10^6 keys, fits L2
		{1_250_000, false},   // 10^7 keys, below band
		{12_500_000, true},   // 10^8 keys, comparable
		{llc55, true},        // exactly LLC
		{125_000_000, false}, // 10^9 keys, above band
	}
	for _, c := range cases {
		if got := p.DependsSensitive(Footprint{BitVectorBytes: c.bytes}); got != c.want {
			t.Errorf("DependsSensitive(%d) = %v, want %v", c.bytes, got, c.want)
		}
	}
}

func TestPolicyMasksAreValid(t *testing.T) {
	p := paperPolicy(true)
	for _, cuid := range []CUID{Sensitive, Polluting, Depends} {
		for _, bv := range []uint64{0, 125_000, 12_500_000, 125_000_000} {
			m := p.MaskFor(cuid, Footprint{BitVectorBytes: bv})
			if m == 0 || !m.Contiguous() || m&^cat.FullMask(ways20) != 0 {
				t.Errorf("MaskFor(%v, bv=%d) = %v invalid", cuid, bv, m)
			}
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	good := paperPolicy(true)
	if err := good.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	bads := []func(*Policy){
		func(p *Policy) { p.LLCWays = 0 },
		func(p *Policy) { p.LLCWays = 40 },
		func(p *Policy) { p.LLCBytes = 0 },
		func(p *Policy) { p.PollutingFraction = 0 },
		func(p *Policy) { p.PollutingFraction = 1.5 },
		func(p *Policy) { p.DependsLargeFraction = -1 },
		func(p *Policy) { p.SensitiveLo = 2; p.SensitiveHi = 1 },
	}
	for i, mutate := range bads {
		p := paperPolicy(true)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid policy accepted", i)
		}
	}
}

func flatCurve(ways int, v float64) []CurvePoint {
	pts := make([]CurvePoint, ways)
	for i := range pts {
		pts[i] = CurvePoint{Ways: i + 1, Throughput: v}
	}
	return pts
}

func TestWaysNeeded(t *testing.T) {
	// Flat curve: one way suffices.
	n, err := WaysNeeded(flatCurve(20, 1.0), 0.05)
	if err != nil || n != 1 {
		t.Errorf("flat curve needs %d ways (%v), want 1", n, err)
	}
	// Knee at 12 ways.
	curve := make([]CurvePoint, 20)
	for i := range curve {
		w := i + 1
		th := 1.0
		if w < 12 {
			th = 0.5 + 0.04*float64(w)
		}
		curve[i] = CurvePoint{Ways: w, Throughput: th}
	}
	n, err = WaysNeeded(curve, 0.05)
	if err != nil || n != 12 {
		t.Errorf("kneed curve needs %d ways (%v), want 12", n, err)
	}
	// Unsorted input handled.
	rev := []CurvePoint{{Ways: 20, Throughput: 1}, {Ways: 1, Throughput: 1}}
	if n, _ = WaysNeeded(rev, 0.05); n != 1 {
		t.Errorf("unsorted flat curve needs %d", n)
	}
	if _, err = WaysNeeded(nil, 0.05); err == nil {
		t.Error("empty curve accepted")
	}
	if _, err = WaysNeeded(flatCurve(5, 1), 1.5); err == nil {
		t.Error("bad tolerance accepted")
	}
}

func TestClassifyCurve(t *testing.T) {
	// Scan-like: flat -> polluting.
	if c, err := ClassifyCurve(flatCurve(20, 1.0), 20); err != nil || c != Polluting {
		t.Errorf("flat curve -> %v (%v), want Polluting", c, err)
	}
	// Aggregation-like: monotone up to full cache -> sensitive.
	agg := make([]CurvePoint, 20)
	for i := range agg {
		agg[i] = CurvePoint{Ways: i + 1, Throughput: 0.3 + 0.035*float64(i+1)}
	}
	if c, err := ClassifyCurve(agg, 20); err != nil || c != Sensitive {
		t.Errorf("rising curve -> %v (%v), want Sensitive", c, err)
	}
	// Join-like: knee at 60% -> depends.
	join := make([]CurvePoint, 20)
	for i := range join {
		w := i + 1
		th := 1.0
		if w < 12 {
			th = 0.7
		}
		join[i] = CurvePoint{Ways: w, Throughput: th}
	}
	if c, err := ClassifyCurve(join, 20); err != nil || c != Depends {
		t.Errorf("kneed curve -> %v (%v), want Depends", c, err)
	}
	if _, err := ClassifyCurve(flatCurve(5, 1), 0); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestDeriveScheme(t *testing.T) {
	// A scan flat everywhere derives the paper's 10%-ish slice, but
	// never below two ways.
	p, err := DeriveScheme(llc55, 20, [][]CurvePoint{flatCurve(20, 1.0)})
	if err != nil {
		t.Fatal(err)
	}
	p.Enabled = true
	if got := p.MaskFor(Polluting, Footprint{}); got != 0x3 {
		t.Errorf("derived polluting mask = %v, want 0x3", got)
	}
	// A "polluter" that actually needs 5 ways widens the slice.
	curve := make([]CurvePoint, 20)
	for i := range curve {
		w := i + 1
		th := 1.0
		if w < 5 {
			th = 0.5
		}
		curve[i] = CurvePoint{Ways: w, Throughput: th}
	}
	p, err = DeriveScheme(llc55, 20, [][]CurvePoint{curve})
	if err != nil {
		t.Fatal(err)
	}
	p.Enabled = true
	if got := p.MaskFor(Polluting, Footprint{}); got.Ways() != 5 {
		t.Errorf("derived polluting mask = %v, want 5 ways", got)
	}
	if _, err := DeriveScheme(llc55, 20, [][]CurvePoint{nil}); err == nil {
		t.Error("empty curve accepted")
	}
}
