package workload

import (
	"math/rand"
	"slices"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/memory"
)

func testRng() *Rand { return NewRand(1) }

// oracleRng is math/rand's own generator at testRng's seed.
func oracleRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestDistinctInts(t *testing.T) {
	vals, err := DistinctInts(testRng(), 100, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, v := range vals {
		if v < 1 || v > 1000 {
			t.Fatalf("value %d out of domain", v)
		}
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	// Dense fallback path.
	all, err := DistinctInts(testRng(), 10, 1, 10)
	if err != nil || len(all) != 10 {
		t.Fatalf("dense sample: %v, %v", all, err)
	}
	// Over-ask.
	if _, err := DistinctInts(testRng(), 11, 1, 10); err == nil {
		t.Error("oversized sample accepted")
	}
}

func TestEncodeUniformDenseRoundTrip(t *testing.T) {
	space := memory.NewSpace()
	col, err := EncodeUniformDense(space, "c", testRng(), 10_000, 10, 50, column.DefaultEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < col.Rows(); i++ {
		v := col.Value(i)
		if v < 10 || v > 50 {
			t.Fatalf("row %d decodes to %d", i, v)
		}
	}
}

// TestEncodeUniformDenseMatchesInt63nLoop pins the generator to the
// per-row rng.Int63n loop it replaced: the same code in every row, the
// same regions, and the same raw draws consumed, for a power-of-two
// and an odd span and a row count that ends inside a run.
func TestEncodeUniformDenseMatchesInt63nLoop(t *testing.T) {
	for _, span := range []int64{1 << 10, 31250} {
		const n = 1000
		space, rng := memory.NewSpace(), testRng()
		col, err := EncodeUniformDense(space, "c", rng, n, 1, span, 64)
		if err != nil {
			t.Fatal(err)
		}
		oracleSpace, oracle := memory.NewSpace(), oracleRng()
		dict, _ := column.NewDenseDictionary(oracleSpace, "c", 1, span, 64)
		codes, _ := column.NewPackedVector(oracleSpace, "c", n, dict.CodeBits())
		if col.Dict.Region() != dict.Region() || col.Codes.Region() != codes.Region() {
			t.Errorf("span %d: regions %v %v, want %v %v", span, col.Dict.Region(), col.Codes.Region(), dict.Region(), codes.Region())
		}
		for i := 0; i < n; i++ {
			if got, want := col.Codes.Get(i), uint32(oracle.Int63n(span)); got != want {
				t.Fatalf("span %d: row %d holds code %d, the Int63n loop %d", span, i, got, want)
			}
		}
		if rng.Int63() != oracle.Int63() {
			t.Errorf("span %d: the generator consumed other draws than the Int63n loop", span)
		}
	}
}

// TestDistinctIntsMatchesInt63nLoop pins the rejection-sampling path to
// the rng.Int63n loop it replaced.
func TestDistinctIntsMatchesInt63nLoop(t *testing.T) {
	rng, oracle := testRng(), oracleRng()
	got, err := DistinctInts(rng, 500, 1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	var want []int64
	for len(want) < 500 {
		if v := 1 + oracle.Int63n(1_000_000); !seen[v] {
			seen[v] = true
			want = append(want, v)
		}
	}
	if !slices.Equal(got, want) || rng.Int63() != oracle.Int63() {
		t.Error("DistinctInts drew other values than the Int63n loop")
	}
}

func TestQ1SpecAndPlan(t *testing.T) {
	space := memory.NewSpace()
	q, err := NewQ1(space, testRng(), Q1Spec{Rows: 10_000, Distinct: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() == "" || q.Spec().Rows != 10_000 {
		t.Error("spec lost")
	}
	phases, err := q.Plan(4, testRng().Rand)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 || len(phases[0].Kernels) != 4 {
		t.Fatalf("phases = %+v", phases)
	}
	if phases[0].CUID != core.Polluting {
		t.Errorf("scan CUID = %v, want Polluting", phases[0].CUID)
	}
	if !phases[0].CountRows {
		t.Error("scan rows must count")
	}
	if _, err := NewQ1(space, testRng(), Q1Spec{}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestQ2PlanAndTables(t *testing.T) {
	space := memory.NewSpace()
	q, err := NewQ2(space, testRng(), Q2Spec{Rows: 10_000, DistinctV: 1000, Groups: 50})
	if err != nil {
		t.Fatal(err)
	}
	phases, err := q.Plan(4, testRng().Rand)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("%d phases, want 2 (local+merge)", len(phases))
	}
	if phases[0].CUID != core.Sensitive || phases[1].CUID != core.Sensitive {
		t.Error("aggregation must be Sensitive")
	}
	if !phases[0].CountRows || phases[1].CountRows {
		t.Error("only the local phase counts rows")
	}
	if len(phases[1].Kernels) != 4 {
		t.Errorf("merge kernels = %d, want one per worker", len(phases[1].Kernels))
	}
	// Replanning with the same core count reuses the tables.
	allocated := space.Allocated()
	if _, err := q.Plan(4, testRng().Rand); err != nil {
		t.Fatal(err)
	}
	if got := space.Allocated(); got != allocated {
		t.Errorf("replanning allocated %d new bytes", got-allocated)
	}
	// Prewarm regions include dictionary and tables.
	pw := q.PrewarmRegions(4)
	if len(pw) != 1+4+1 {
		t.Errorf("prewarm regions = %d, want dict+4 locals+global", len(pw))
	}
	if _, err := NewQ2(space, testRng(), Q2Spec{Rows: 1}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestQ3BuildRatio(t *testing.T) {
	// The paper's build:probe ratio N : 1e9 is preserved under
	// sampling.
	s := Q3Spec{ProbeRows: 1_000_000, Keys: 12_500_000, PaperKeys: 100_000_000}
	if got := s.BuildRowsPerExec(); got != 100_000 {
		t.Errorf("build rows = %d, want 1e5 (1e6 × 1e8/1e9)", got)
	}
	tiny := Q3Spec{ProbeRows: 100, Keys: 100} // defaults: PaperKeys=Keys, probe=1e9
	if got := tiny.BuildRowsPerExec(); got != 1 {
		t.Errorf("tiny build rows = %d, want clamp to 1", got)
	}
}

func TestQ3PlanAndFootprint(t *testing.T) {
	space := memory.NewSpace()
	q, err := NewQ3(space, testRng(), Q3Spec{ProbeRows: 10_000, Keys: 1 << 16, PaperKeys: 1 << 16, PaperProbeRows: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	// Bit vector fully populated at load.
	if got := q.BV.PopCount(); got != 1<<16 {
		t.Errorf("bit vector has %d bits, want %d", got, 1<<16)
	}
	if q.Footprint().BitVectorBytes != q.BV.Bytes() {
		t.Error("footprint mismatch")
	}
	phases, err := q.Plan(2, testRng().Rand)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("%d phases, want build+probe", len(phases))
	}
	for _, ph := range phases {
		if ph.CUID != core.Depends {
			t.Errorf("phase %q CUID = %v, want Depends", ph.Name, ph.CUID)
		}
		if ph.Footprint.BitVectorBytes == 0 {
			t.Errorf("phase %q missing footprint hint", ph.Name)
		}
		if !ph.CountRows {
			t.Errorf("phase %q rows must count", ph.Name)
		}
	}
	if _, err := NewQ3(space, testRng(), Q3Spec{}); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestMicroQueriesRunOnEngine executes each micro query end to end on
// a small machine and verifies progress and determinism.
func TestMicroQueriesRunOnEngine(t *testing.T) {
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 4
	run := func() []engine.StreamResult {
		m, err := cachesim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pol := core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways)
		e, err := engine.New(m, pol)
		if err != nil {
			t.Fatal(err)
		}
		space := memory.NewSpace()
		rng := testRng()
		q1, err := NewQ1(space, rng, Q1Spec{Rows: 200_000, Distinct: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		q2, err := NewQ2(space, rng, Q2Spec{Rows: 50_000, DistinctV: 10_000, Groups: 100})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run([]engine.StreamSpec{
			{Query: q1, Cores: []int{0, 1}},
			{Query: q2, Cores: []int{2, 3}},
		}, engine.RunOptions{Duration: 0.0005, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a[0].Rows == 0 || a[1].Rows == 0 {
		t.Fatalf("no progress: %+v", a)
	}
	b := run()
	for i := range a {
		if a[i].Rows != b[i].Rows {
			t.Errorf("stream %d non-deterministic: %d vs %d", i, a[i].Rows, b[i].Rows)
		}
	}
}

// TestQ2ResultCorrectUnderEngine verifies the global aggregate is the
// true MAX per group after an engine-driven execution.
func TestQ2ResultCorrectUnderEngine(t *testing.T) {
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 4
	m, _ := cachesim.New(cfg)
	e, _ := engine.New(m, core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways))
	space := memory.NewSpace()
	rng := testRng()
	q2, err := NewQ2(space, rng, Q2Spec{Rows: 30_000, DistinctV: 5_000, Groups: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Long enough for at least one complete execution.
	if _, err := e.Run([]engine.StreamSpec{{Query: q2, Cores: []int{0, 1, 2, 3}}},
		engine.RunOptions{Duration: 0.01, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	want := map[uint32]int64{}
	for i := 0; i < q2.GroupCol.Rows(); i++ {
		g := q2.GroupCol.Codes.Get(i)
		v := q2.ValueCol.Value(i)
		if cur, ok := want[g]; !ok || v > cur {
			want[g] = v
		}
	}
	got := q2.LastResult()
	if len(got) != len(want) {
		t.Fatalf("result groups = %d, want %d", len(got), len(want))
	}
	for g, wv := range want {
		if v, ok := got[g]; !ok || v != wv {
			t.Errorf("group %d = %d, want %d", g, v, wv)
		}
	}
}
