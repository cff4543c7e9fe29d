package engine

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/fault"
)

// checkGolden compares got with testdata/golden/<name>.txt, a result
// recorded in an earlier process: it fails on what every run of one
// process shares, which a rerun in the same process cannot see, such
// as a seed derivation shifted by one. A deliberate change of the
// result rewrites the file from the text the failure prints.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s\n want:\n%s  got:\n%s", name, path, want, got)
	}
}

// goldenText renders per-stream counts and an FNV-1a digest of the
// whole result in %+v form, which covers every field.
func goldenText(streams []string, whole any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", whole)
	return strings.Join(streams, "\n") + fmt.Sprintf("\ndigest %016x\n", h.Sum64())
}

// TestRunBitIdentical pins the reproducibility contract the nondet
// lint check guards statically: two runs with the same seed must
// produce bit-for-bit identical results — counters, throughput,
// cache statistics, and every recorded execution duration — even with
// concurrent streams and the partitioning policy enabled. (The older
// TestRunDeterministic covers only the row counters of one stream.)
// Nor may the host's parallelism show: the column scan counts on a
// goroutine beside the simulation, so the same seed is also run with
// the scheduler held to one P. Stream B draws each execution's rows
// from its rng, so the seed must move the result, and seed 42's result
// is pinned in a golden file.
func TestRunBitIdentical(t *testing.T) {
	type outcome struct {
		res   []StreamResult
		total cachesim.CoreStats
	}
	scan := newScanQuery(t, 60_000)
	run := func(seed int64) outcome {
		t.Helper()
		e := testEngine(t, true)
		specs := []StreamSpec{
			{Query: scan, Cores: []int{0, 1, 2, 3}},
			{Query: &countQuery{name: "B", rowsPerExec: 400, jitter: 400, cuid: core.Sensitive}, Cores: []int{4, 5, 6, 7}},
		}
		res, err := e.Run(specs, RunOptions{Duration: 1e-4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Executions < 2 {
			t.Fatalf("the scan stream completed %d executions; too few to exercise its count goroutine", res[0].Executions)
		}
		return outcome{res, e.Machine().TotalStats()}
	}

	first := run(42)
	second := run(42)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same-seed runs diverged:\n first: %+v\nsecond: %+v", first, second)
	}
	onOneP(func() {
		if oneP := run(42); !reflect.DeepEqual(first, oneP) {
			t.Errorf("the same seed on one P diverged:\n default: %+v\n  one P: %+v", first, oneP)
		}
	})

	if other := run(43); reflect.DeepEqual(first, other) {
		t.Error("seed 42 and 43 produced identical results; the stream seed does not reach the plan")
	}
	var streams []string
	for _, r := range first.res {
		streams = append(streams, fmt.Sprintf("%s executions=%d rows=%d queries=%d", r.Name, r.Executions, r.Rows, len(r.Queries)))
	}
	checkGolden(t, "run_bit_identical", goldenText(streams, first))
}

// TestIndependentSystemsShareNothing is the contract that lets the
// simulator hold no lock: two engines, each with its own machine,
// address space and chaos-wrapped control plane, run the same co-run
// on two goroutines, and each returns what a serial run returns. Under
// -race it also fails on any state the two share.
func TestIndependentSystemsShareNothing(t *testing.T) {
	type system struct {
		e    *Engine
		pl   *fault.Plane
		scan *scanQuery
	}
	type outcome struct {
		res    []StreamResult
		total  cachesim.CoreStats
		faults fault.Stats
	}
	build := func() system {
		e, pl := chaosEngine(t, fault.Uniform(0.2, 7))
		return system{e, pl, newScanQuery(t, 60_000)}
	}
	run := func(s system) (outcome, error) {
		specs := []StreamSpec{
			{Query: s.scan, Cores: []int{0, 1, 2, 3}},
			{Query: &countQuery{name: "B", rowsPerExec: 400, cuid: core.Sensitive}, Cores: []int{4, 5, 6, 7}},
		}
		res, err := s.e.Run(specs, RunOptions{Duration: 1e-4, Seed: 42})
		return outcome{res, s.e.Machine().TotalStats(), s.pl.Stats()}, err
	}

	serial, err := run(build())
	if err != nil {
		t.Fatal(err)
	}
	if serial.faults.Injected == 0 {
		t.Fatal("the serial run injected no fault; the control plane is not exercised")
	}
	systems := [2]system{build(), build()}
	var got [2]outcome
	var errs [2]error
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(systems[i])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(serial, got[i]) {
			t.Errorf("system %d on its own goroutine diverged from the serial run:\n serial: %+v\n    got: %+v", i, serial, got[i])
		}
	}
}
