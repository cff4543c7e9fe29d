package engine

import (
	"math/rand"
	"strings"
	"testing"

	"cachepart/internal/core"
	"cachepart/internal/exec"
)

// phaseQuery plans fixed-CUID phases, for profiling tests.
type phaseQuery struct {
	name  string
	cuids []core.CUID
}

func (q *phaseQuery) Name() string { return q.name }

func (q *phaseQuery) Plan(cores int, rng *rand.Rand) ([]Phase, error) {
	phases := make([]Phase, 0, len(q.cuids))
	for _, c := range q.cuids {
		phases = append(phases, Phase{
			Name:      "p",
			CUID:      c,
			Kernels:   []exec.Kernel{&countKernel{remaining: 100}},
			CountRows: true,
		})
	}
	return phases, nil
}

func TestProfileOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		cuids []core.CUID
		want  core.CUID
	}{
		{[]core.CUID{core.Polluting}, core.Polluting},
		{[]core.CUID{core.Polluting, core.Sensitive}, core.Sensitive},
		{[]core.CUID{core.Depends, core.Depends}, core.Depends},
		{[]core.CUID{core.Polluting, core.Depends}, core.Depends},
		{nil, core.Sensitive},
	}
	for i, c := range cases {
		q := &phaseQuery{name: "q", cuids: c.cuids}
		if len(c.cuids) == 0 {
			q.cuids = []core.CUID{core.Sensitive}
		}
		got, err := ProfileOf(q, 2, rng)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: profile = %v, want %v", i, got, c.want)
		}
	}
}

// TestUnsetCUIDRejected: a phase that never named its CUID fails the
// closed loop, the open loop and profiling, and the error names the
// query and the phase.
func TestUnsetCUIDRejected(t *testing.T) {
	q := &phaseQuery{name: "unclassified", cuids: []core.CUID{core.Polluting, core.Unset}}
	want := `phase "p" of query "unclassified" has no CUID`
	_, errRun := testEngine(t, true).Run([]StreamSpec{{Query: q, Cores: []int{0}}}, RunOptions{Duration: 1e-4})
	feed := &sliceFeed{subs: []Submission{{Query: q, Rng: rand.New(rand.NewSource(1))}}}
	_, errOpen := testEngine(t, true).RunOpenLoop([][]int{{0}}, feed, OpenLoopOptions{})
	_, errProfile := ProfileOf(q, 1, rand.New(rand.NewSource(1)))
	for name, err := range map[string]error{"Run": errRun, "RunOpenLoop": errOpen, "ProfileOf": errProfile} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, want)
		}
	}
}

func TestPlanRounds(t *testing.T) {
	qs := []Query{
		&phaseQuery{name: "scan1"},
		&phaseQuery{name: "agg1"},
		&phaseQuery{name: "scan2"},
		&phaseQuery{name: "agg2"},
	}
	profiles := []core.CUID{core.Polluting, core.Sensitive, core.Polluting, core.Sensitive}

	naive := PlanRounds(qs, profiles, 2, false)
	if len(naive) != 2 {
		t.Fatalf("naive rounds = %d", len(naive))
	}
	if naive[0][0].Name() != "scan1" || naive[0][1].Name() != "agg1" {
		t.Errorf("naive round 0 = %s, %s", naive[0][0].Name(), naive[0][1].Name())
	}

	aware := PlanRounds(qs, profiles, 2, true)
	if aware[0][0].Name() != "scan1" || aware[0][1].Name() != "scan2" {
		t.Errorf("aware round 0 = %s, %s — polluters should share", aware[0][0].Name(), aware[0][1].Name())
	}
	if aware[1][0].Name() != "agg1" || aware[1][1].Name() != "agg2" {
		t.Errorf("aware round 1 = %s, %s — sensitive should share", aware[1][0].Name(), aware[1][1].Name())
	}

	// Odd sizes and degenerate slots.
	odd := PlanRounds(qs[:3], profiles[:3], 2, true)
	if len(odd) != 2 || len(odd[1]) != 1 {
		t.Errorf("odd rounds = %v", odd)
	}
	one := PlanRounds(qs, profiles, 0, false)
	if len(one) != 4 {
		t.Errorf("slots<1 rounds = %d, want one query per round", len(one))
	}
}

func TestRunRounds(t *testing.T) {
	e := testEngine(t, false)
	rounds := []Round{
		{&countQuery{name: "a", rowsPerExec: 500, cuid: core.Sensitive}, &countQuery{name: "b", rowsPerExec: 500, cuid: core.Sensitive}},
		{&countQuery{name: "c", rowsPerExec: 500, cuid: core.Sensitive}},
	}
	res, err := e.RunRounds(rounds, RunOptions{Duration: 5e-5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0]) != 2 || len(res[1]) != 1 {
		t.Fatalf("results shape = %v", res)
	}
	for ri := range res {
		for qi := range res[ri] {
			if res[ri][qi].Rows == 0 {
				t.Errorf("round %d query %d made no progress", ri, qi)
			}
		}
	}
}
