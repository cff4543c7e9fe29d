package s4

import (
	"math/rand"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
	"cachepart/internal/workload"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	space := memory.NewSpace()
	tab, err := Load(space, workload.NewRand(1), Spec{Rows: 50_000, Scale: 64, RowsPerDocument: 20})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestLoadGeometry(t *testing.T) {
	tab := testTable(t)
	if len(tab.Big) != 13 {
		t.Errorf("big columns = %d, want 13", len(tab.Big))
	}
	if len(tab.Small) != 6 {
		t.Errorf("small columns = %d, want 6", len(tab.Small))
	}
	if len(tab.Residual) != 4 {
		t.Errorf("residual key columns = %d, want 4", len(tab.Residual))
	}
	if tab.Docs() != 2500 {
		t.Errorf("docs = %d, want 50000/20", tab.Docs())
	}
	// Big dictionaries are bigger than small ones, and sorted
	// descending.
	if dictBytes(tab.Big) <= dictBytes(tab.Small) {
		t.Error("big projection set not bigger than small one")
	}
	for i := 1; i < len(tab.Big); i++ {
		if tab.Big[i].Dict.Bytes() > tab.Big[i-1].Dict.Bytes() {
			t.Error("big dictionaries not descending")
			break
		}
	}
}

// TestLoadMatchesInt63nLoop pins Load to the per-row generator it
// replaced: each row's document drawn with rng.Int63n, the residual
// keys derived per row, then every projection column's codes drawn
// row by row with rng.Int63n. Every column holds the same codes and
// the same raw draws are consumed.
func TestLoadMatchesInt63nLoop(t *testing.T) {
	spec := Spec{Rows: 3000, Scale: 256, RowsPerDocument: 20}
	rng := workload.NewRand(9)
	tab, err := Load(memory.NewSpace(), rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle := rand.New(rand.NewSource(9))
	check := func(col *column.Column, want func(i int) int64) {
		t.Helper()
		for i := 0; i < spec.Rows; i++ {
			if got, w := col.Value(i), want(i); got != w {
				t.Fatalf("%s row %d = %d, the per-row loop %d", col.Name, i, got, w)
			}
		}
	}
	docOf := make([]int64, spec.Rows)
	for i := range docOf {
		docOf[i] = 1 + oracle.Int63n(tab.Docs())
	}
	check(tab.DocKey, func(i int) int64 { return docOf[i] })
	for k, col := range tab.Residual {
		check(col, func(i int) int64 { return residualOf(docOf[i])[k] })
	}
	for _, col := range append(tab.Big, tab.Small...) {
		distinct := int64(col.Dict.Len())
		codes := make([]int64, spec.Rows)
		for i := range codes {
			codes[i] = 1 + oracle.Int63n(distinct)
		}
		check(col, func(i int) int64 { return codes[i] })
	}
	if rng.Int63() != oracle.Int63() {
		t.Error("Load consumed other draws than the per-row loop")
	}
}

func TestLoadValidation(t *testing.T) {
	space := memory.NewSpace()
	if _, err := Load(space, workload.NewRand(1), Spec{}); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestResidualConsistency(t *testing.T) {
	tab := testTable(t)
	// Every row of one document carries that document's derived
	// residual keys — the property the lookup's verification relies on.
	rows := tab.Index.Lookup(7)
	if len(rows) == 0 {
		t.Fatal("document 7 has no rows")
	}
	want := residualOf(7)
	for _, r := range rows {
		for k, col := range tab.Residual {
			if got := col.Value(int(r)); got != want[k] {
				t.Fatalf("row %d residual %d = %d, want %d", r, k, got, want[k])
			}
		}
	}
}

func TestResidualOfDeterministicAndInCard(t *testing.T) {
	for doc := int64(1); doc < 500; doc++ {
		a := residualOf(doc)
		b := residualOf(doc)
		for k := range a {
			if a[k] != b[k] {
				t.Fatal("residualOf not deterministic")
			}
			if a[k] < 1 || a[k] > residualCards()[k] {
				t.Fatalf("residual %d = %d outside card %d", k, a[k], residualCards()[k])
			}
		}
	}
}

func TestOLTPQueryFindsDocumentRows(t *testing.T) {
	tab := testTable(t)
	q, err := NewOLTPQuery(tab, tab.Big[:3])
	if err != nil {
		t.Fatal(err)
	}
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 2
	m, _ := cachesim.New(cfg)
	ctx := &exec.Ctx{M: m, Core: 0}

	rng := rand.New(rand.NewSource(2))
	phases, err := q.Plan(1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 || len(phases[0].Kernels) != 1 {
		t.Fatalf("phases = %+v", phases)
	}
	if phases[0].CUID != core.Sensitive {
		t.Error("OLTP query must be Sensitive (dedicated pool keeps the full cache)")
	}
	k := phases[0].Kernels[0].(*exec.PKLookupProject)
	exec.Drive(ctx, k, 64)
	rows := k.Rows()
	if len(rows) == 0 {
		t.Fatal("lookup found no rows")
	}
	// All returned rows hold the looked-up document.
	for _, r := range rows {
		if got := tab.DocKey.Value(int(r)); got != k.IndexKey {
			t.Fatalf("row %d holds doc %d, want %d", r, got, k.IndexKey)
		}
	}
	// All rows of that document were found.
	if want := tab.Index.Lookup(k.IndexKey); len(want) != len(rows) {
		t.Errorf("found %d rows, document has %d", len(rows), len(want))
	}
	if k.Projected != int64(len(rows)*3) {
		t.Errorf("Projected = %d, want rows×3", k.Projected)
	}
}

func TestOLTPQueryValidation(t *testing.T) {
	tab := testTable(t)
	if _, err := NewOLTPQuery(tab, nil); err == nil {
		t.Error("empty projection accepted")
	}
}

func TestPrewarmRegions(t *testing.T) {
	tab := testTable(t)
	q, _ := NewOLTPQuery(tab, tab.Big)
	regions := q.PrewarmRegions(1)
	// Only the dictionaries: the index is uncacheable by design.
	if len(regions) != len(tab.Big) {
		t.Errorf("prewarm regions = %d, want 13 dictionaries", len(regions))
	}
	for _, r := range regions {
		if r.Size == tab.Index.Region().Size && r.Base == tab.Index.Region().Base {
			t.Error("index must not be prewarmed")
		}
	}
}

func TestOLTPRunsOnEngine(t *testing.T) {
	tab := testTable(t)
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 2
	m, _ := cachesim.New(cfg)
	e, _ := engine.New(m, core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways))
	q, _ := NewOLTPQuery(tab, tab.Big[:6])
	res, err := e.Run([]engine.StreamSpec{{Query: q, Cores: []int{0}}},
		engine.RunOptions{Duration: 0.002, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Executions == 0 {
		t.Error("no OLTP executions completed")
	}
}

// dictBytes sums the simulated dictionary sizes of a projection set.
func dictBytes(cols []*column.Column) uint64 {
	var total uint64
	for _, c := range cols {
		total += c.Dict.Bytes()
	}
	return total
}
