package harness

import (
	"bytes"
	"testing"

	"cachepart/internal/adapt"
)

// TestFigAdaptAcceptance pins the headline claims of the adaptive
// controller on the Figure 9(b)-style co-run (scan ∥ aggregation):
//
//  1. blind (annotations stripped), the controller recovers at least
//     half of the static scheme's throughput gain for the
//     cache-sensitive aggregation — static partitioning recovers
//     nothing blind, since every phase carries the default CUID;
//  2. with correct annotations the controller lands within a few
//     percent of the static scheme;
//  3. the controller never makes either co-runner meaningfully slower
//     than the unpartitioned run.
func TestFigAdaptAcceptance(t *testing.T) {
	t.Parallel()
	r, err := FigAdapt(Fast())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	PrintAdapt(&out, r)
	checkGolden(t, "adapt", out.Bytes())
	arm := func(row PairRow, name string) PairArm {
		a, ok := row.Arm(name)
		if !ok {
			t.Fatalf("row %q misses arm %q", row.Label, name)
		}
		return a
	}

	annShared := arm(r.Annotated, "shared")
	annStatic := arm(r.Annotated, "static")
	annAdaptive := arm(r.Annotated, "adaptive")
	blindShared := arm(r.Blind, "shared")
	blindStatic := arm(r.Blind, "static")
	blindAdaptive := arm(r.Blind, "adaptive")

	t.Logf("annotated: agg shared %.3f static %.3f adaptive %.3f | scan shared %.3f static %.3f adaptive %.3f",
		annShared.NormB, annStatic.NormB, annAdaptive.NormB,
		annShared.NormA, annStatic.NormA, annAdaptive.NormA)
	t.Logf("blind:     agg shared %.3f static %.3f adaptive %.3f | scan shared %.3f static %.3f adaptive %.3f",
		blindShared.NormB, blindStatic.NormB, blindAdaptive.NormB,
		blindShared.NormA, blindStatic.NormA, blindAdaptive.NormA)

	staticGain := annStatic.NormB - annShared.NormB
	if staticGain <= 0 {
		t.Fatalf("static scheme shows no gain (%.3f) — co-run configuration too benign", staticGain)
	}
	// (1) Blind recovery.
	blindGain := blindAdaptive.NormB - blindShared.NormB
	if blindGain < staticGain/2 {
		t.Errorf("blind adaptive gain %.3f recovers less than half the static gain %.3f",
			blindGain, staticGain)
	}
	// Sanity: blind static partitioning cannot act on stripped
	// annotations (all phases default to Sensitive → full mask).
	if blindStatic.NormB > blindShared.NormB+staticGain/2 {
		t.Errorf("blind static arm gained %.3f without annotations; stripping is broken",
			blindStatic.NormB-blindShared.NormB)
	}
	// (2) Annotated adaptive tracks static.
	if annAdaptive.NormB < annStatic.NormB-0.05 {
		t.Errorf("annotated adaptive agg %.3f more than 5 pp below static %.3f",
			annAdaptive.NormB, annStatic.NormB)
	}
	// (3) No victim: neither query falls meaningfully below its
	// unpartitioned co-run throughput under the controller.
	if annAdaptive.NormA < annShared.NormA-0.05 {
		t.Errorf("annotated adaptive scan %.3f below shared %.3f", annAdaptive.NormA, annShared.NormA)
	}
	if blindAdaptive.NormA < blindShared.NormA-0.05 {
		t.Errorf("blind adaptive scan %.3f below shared %.3f", blindAdaptive.NormA, blindShared.NormA)
	}
}

// TestAdaptiveIsolatedNoRegression runs each micro-benchmark query
// alone, unpartitioned versus controller-enabled: the controller must
// never make an isolated query slower (beyond run-to-run noise).
func TestAdaptiveIsolatedNoRegression(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(Fast())
	if err != nil {
		t.Fatal(err)
	}
	q1, err := NewQ1(sys)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQ2(sys, FigAdaptDistinct, FigAdaptGroups)
	if err != nil {
		t.Fatal(err)
	}
	cores := sys.AllCores()[:4]
	check := func(label string, iso func() (Measure, error)) {
		if err := sys.SetPartitioning(false); err != nil {
			t.Fatal(err)
		}
		sys.DisableAdaptive()
		base, err := iso()
		if err != nil {
			t.Fatalf("%s unpartitioned: %v", label, err)
		}
		if _, err := sys.EnableAdaptive(adapt.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		adaptive, err := iso()
		sys.DisableAdaptive()
		if err != nil {
			t.Fatalf("%s adaptive: %v", label, err)
		}
		ratio := adaptive.Throughput / base.Throughput
		t.Logf("%s isolated: unpartitioned %.3g rows/s, adaptive %.3g rows/s (%.3f×)",
			label, base.Throughput, adaptive.Throughput, ratio)
		if ratio < 0.97 {
			t.Errorf("%s isolated slowed to %.3f× under the controller", label, ratio)
		}
	}
	check("scan", func() (Measure, error) { return sys.RunIsolated(q1, cores) })
	check("agg", func() (Measure, error) { return sys.RunIsolated(q2, cores) })
	check("scan-blind", func() (Measure, error) { return sys.RunIsolated(Unannotated(q1), cores) })
	check("agg-blind", func() (Measure, error) { return sys.RunIsolated(Unannotated(q2), cores) })
}
