package engine

import (
	"testing"
)

func TestRunSharedPoolValidation(t *testing.T) {
	e := testEngine(t, false)
	if _, err := e.RunSharedPool(nil, RunOptions{Duration: 1e-4}); err == nil {
		t.Error("no queries accepted")
	}
	q := &countQuery{name: "q", rowsPerExec: 100}
	if _, err := e.RunSharedPool([]Query{q}, RunOptions{}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := e.RunSharedPool([]Query{noPhasesQuery{}}, RunOptions{Duration: 1e-4}); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := e.RunSharedPool([]Query{stuckQuery{}}, RunOptions{Duration: 1e-4}); err == nil {
		t.Error("stuck kernel not detected")
	}
}

func TestRunSharedPoolProgressAndFairness(t *testing.T) {
	e := testEngine(t, false)
	qa := &countQuery{name: "a", rowsPerExec: 1000}
	qb := &countQuery{name: "b", rowsPerExec: 1000}
	res, err := e.RunSharedPool([]Query{qa, qb}, RunOptions{Duration: 2e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Rows == 0 {
			t.Errorf("stream %s starved", r.Name)
		}
		if r.Stats.Instructions == 0 {
			t.Errorf("stream %s has no attributed instructions", r.Name)
		}
	}
	// Symmetric queries share the pool evenly (within 15%).
	ratio := float64(res[0].Rows) / float64(res[1].Rows)
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("unfair pool split: %v", ratio)
	}
}

func TestRunSharedPoolDeterministic(t *testing.T) {
	run := func() []StreamResult {
		e := testEngine(t, false)
		qa := &countQuery{name: "a", rowsPerExec: 700}
		qb := &countQuery{name: "b", rowsPerExec: 900}
		res, err := e.RunSharedPool([]Query{qa, qb}, RunOptions{Duration: 1e-4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Rows != b[i].Rows || a[i].Executions != b[i].Executions {
			t.Errorf("stream %d non-deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunSharedPoolMaskWritesBounded: with affinity and elision, mask
// writes stay proportional to genuine class switches, not to slices.
func TestRunSharedPoolMaskWritesBounded(t *testing.T) {
	e := testEngine(t, true)
	polluter := &countQuery{name: "scan", rowsPerExec: 5000, cuid: 1 /* Polluting */}
	sensitive := &countQuery{name: "agg", rowsPerExec: 5000}
	res, err := e.RunSharedPool([]Query{polluter, sensitive}, RunOptions{Duration: 2e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	totalRows := res[0].Rows + res[1].Rows
	if totalRows == 0 {
		t.Fatal("no progress")
	}
	writes := e.MaskWrites()
	if writes == 0 {
		t.Error("shared pool with mixed classes performed no mask writes")
	}
	// Far fewer writes than scheduling slices (rows/16 is a loose
	// lower bound on slices taken).
	if int64(writes) > totalRows/4 {
		t.Errorf("mask writes %d not bounded by affinity+elision (rows %d)", writes, totalRows)
	}
}

// TestRunSharedPoolBarrier: phases of one stream complete in order
// while the other stream keeps the pool busy.
func TestRunSharedPoolBarrier(t *testing.T) {
	e := testEngine(t, false)
	tp := &twoPhaseQuery{rowsA: 600, rowsB: 100}
	filler := &countQuery{name: "filler", rowsPerExec: 400}
	res, err := e.RunSharedPool([]Query{tp, filler}, RunOptions{Duration: 3e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Executions == 0 {
		t.Fatal("two-phase query never completed")
	}
	if tp.outOfOrder {
		t.Error("phase B observed unfinished phase A in the shared pool")
	}
}
