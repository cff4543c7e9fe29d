package harness

import (
	"bytes"
	"reflect"
	"testing"

	"cachepart/internal/fault"
	"cachepart/internal/serve"
)

// overloadTestOpts pins the 3x rogue-polluter point the acceptance
// criterion cares about, with both the no-shed control and the
// polluter-first treatment.
func overloadTestOpts() Params {
	p := Fast()
	p.Overload = OverloadOptions{Loads: []float64{3.0}, Sheds: []serve.Shed{serve.ShedNone, serve.ShedPolluter}}
	return p
}

// TestFigOverloadSmoke pins a reduced sweep at test scale, loads 1 and
// 3 on every arm and shedding policy, to
// testdata/golden/sweep/overload.txt.
func TestFigOverloadSmoke(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	p := Fast()
	p.Overload.Loads = []float64{1, 3}
	r, err := FigOverload(p)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	PrintOverload(&out, r)
	checkGolden(t, "sweep/overload", out.Bytes())
}

// TestFigOverloadAcceptance pins the experiment's headline claim: at
// 3x rogue-polluter overload, polluter-first shedding recovers the
// victim tenant — lower p99 AND higher SLO attainment than no-shed —
// on every cache arm.
func TestFigOverloadAcceptance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("overload sweep in short mode")
	}
	r, err := FigOverload(overloadTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	PrintOverload(&out, r)
	checkGolden(t, "overload", out.Bytes())
	ld := r.Loads[0]
	for _, arm := range []string{"shared", "static", "adaptive"} {
		none, pol := ld.Run(arm, serve.ShedNone), ld.Run(arm, serve.ShedPolluter)
		if none == nil || pol == nil {
			t.Fatalf("arm %q missing none/polluter cells", arm)
		}
		vNone, vPol := none.Tenants[r.Victim], pol.Tenants[r.Victim]
		if vPol.P99 >= vNone.P99 {
			t.Errorf("%s: polluter-first victim p99 %d >= no-shed %d at 3x", arm, vPol.P99, vNone.P99)
		}
		if vPol.SLOAttainment <= vNone.SLOAttainment {
			t.Errorf("%s: polluter-first victim SLO attainment %.3f <= no-shed %.3f at 3x",
				arm, vPol.SLOAttainment, vNone.SLOAttainment)
		}
		// The recovery comes from shedding the polluter, not from
		// accounting tricks: the polluting cohort is classified and
		// actually shed.
		if p := pol.Tenants[r.Polluter]; !p.Polluter || p.DropShed == 0 {
			t.Errorf("%s: polluter cohort not shed (classified=%v, shed=%d)", arm, p.Polluter, p.DropShed)
		}
		if vPol.DropShed != 0 {
			t.Errorf("%s: polluter-first shed %d victim queries", arm, vPol.DropShed)
		}
	}
}

// overloadChaosOpts composes control-plane resctrl chaos with
// serving-plane bursts on top of retries and breakers.
func overloadChaosOpts() Params {
	p := Fast()
	p.Overload = OverloadOptions{
		Loads: []float64{3.0},
		Sheds: []serve.Shed{serve.ShedPolluter},
		Arms:  []string{"static", "adaptive"},
	}
	cfg := fault.Uniform(0.2, 7)
	p.Overload.Faults = &cfg
	p.Overload.ServeFaults = &fault.ServeConfig{Seed: 7, Bursts: 1, BurstFactor: 3}
	return p
}

// TestFigOverloadChaosReplay pins chaos interop: the sweep under
// composed control-plane and serving-plane fault injection replays
// bit-identically per (seed, fault-seed), and a different fault seed
// actually changes the outcome.
func TestFigOverloadChaosReplay(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("overload sweep in short mode")
	}
	a, err := FigOverload(overloadChaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FigOverload(overloadChaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("chaos overload sweep differs across identical replays")
	}
	reseed := overloadChaosOpts()
	reseed.Overload.ServeFaults.Seed = 8
	c, err := FigOverload(reseed)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different serving-plane fault seed left the sweep unchanged")
	}
	// Under overload control admitted != completed is expected (queries
	// drop); the accounting identity must still close per tenant.
	for _, ld := range a.Loads {
		for _, run := range ld.Runs {
			for _, tr := range run.Report.Tenants {
				if tr.Attempts != tr.Completed+tr.Dropped {
					t.Errorf("%s/%s tenant %s: attempts %d != completed %d + dropped %d",
						run.Arm, run.Shed, tr.Name, tr.Attempts, tr.Completed, tr.Dropped)
				}
				if tr.Attempts != tr.Arrivals+tr.Retries {
					t.Errorf("%s/%s tenant %s: attempts %d != arrivals %d + retries %d",
						run.Arm, run.Shed, tr.Name, tr.Attempts, tr.Arrivals, tr.Retries)
				}
			}
		}
	}
}
