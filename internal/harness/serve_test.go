package harness

import (
	"bytes"
	"reflect"
	"testing"

	"cachepart/internal/fault"
	"cachepart/internal/serve"
)

// serveTestOpts keeps the sweep small enough for CI while preserving
// the saturation point the acceptance criterion cares about.
func serveTestOpts() Params {
	p := Fast()
	p.Serve = ServeOptions{Loads: []float64{1.0}, Arrivals: 120}
	return p
}

// TestFigServeSmoke pins the full sweep at test scale, every load and
// arm, to testdata/golden/sweep/serve.txt, and the experiment's
// headline claim on its 1.0x saturation point: both the paper's static
// scheme and the adaptive controller deliver lower p99 latency and
// higher Jain fairness than the shared-cache baseline (the committed
// table in EXPERIMENTS.md).
func TestFigServeSmoke(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	r, err := FigServe(Fast())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	PrintServe(&out, r)
	checkGolden(t, "sweep/serve", out.Bytes())

	var arms map[string]*serve.Report
	for _, ld := range r.Loads {
		if ld.Load == 1.0 {
			arms = map[string]*serve.Report{}
			for _, arm := range ld.Arms {
				arms[arm.Name] = arm.Report
			}
		}
	}
	if arms == nil {
		t.Fatal("no 1.0x point in the sweep")
	}
	shared := arms["shared"]
	for _, name := range []string{"static", "adaptive"} {
		rep := arms[name]
		if rep == nil {
			t.Fatalf("arm %q missing from sweep", name)
		}
		if rep.P99 >= shared.P99 {
			t.Errorf("%s p99 %d >= shared %d at 1.0x", name, rep.P99, shared.P99)
		}
		if rep.Jain <= shared.Jain {
			t.Errorf("%s Jain %.3f <= shared %.3f at 1.0x", name, rep.Jain, shared.Jain)
		}
	}
}

// TestFigServeDeterminism pins bit-identical reports per seed, and
// the serve golden file on the first run.
func TestFigServeDeterminism(t *testing.T) {
	t.Parallel()
	a, err := FigServe(serveTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	PrintServe(&out, a)
	checkGolden(t, "serve", out.Bytes())
	b, err := FigServe(serveTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("FigServe reports differ across identical runs")
	}
}

// TestFigServeChaos pins chaos interop: the sweep under control-plane
// fault injection is bit-identical per (run-seed, fault-seed), and
// degraded runs still report complete latency accounting.
func TestFigServeChaos(t *testing.T) {
	t.Parallel()
	p := serveTestOpts()
	cfg := fault.Uniform(0.2, 7)
	p.Serve.Faults = &cfg
	a, err := FigServe(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FigServe(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("chaos FigServe reports differ across identical runs")
	}
	degraded := int64(0)
	for _, ld := range a.Loads {
		for _, arm := range ld.Arms {
			rep := arm.Report
			if rep.Completed != rep.Admitted {
				t.Errorf("%s at %.1fx: %d admitted but %d completed under faults",
					arm.Name, ld.Load, rep.Admitted, rep.Completed)
			}
			if rep.P99 <= 0 {
				t.Errorf("%s at %.1fx: missing latency percentiles under faults", arm.Name, ld.Load)
			}
			for _, g := range rep.Groups {
				degraded += g.Degraded
			}
		}
	}
	if degraded == 0 {
		t.Error("20% fault rate degraded nothing — injection not reaching the serve path")
	}
}
