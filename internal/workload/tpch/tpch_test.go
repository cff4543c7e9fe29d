package tpch

import (
	"math/rand"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/memory"
	"cachepart/internal/workload"
)

func testDB(t *testing.T) (*DB, *memory.Space) {
	t.Helper()
	space := memory.NewSpace()
	db, err := Load(space, workload.NewRand(1), Spec{Scale: 64, LineitemRows: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	return db, space
}

func TestLoadGeometry(t *testing.T) {
	db, _ := testDB(t)
	if db.Lineitem.Rows() != 40_000 {
		t.Errorf("lineitem rows = %d", db.Lineitem.Rows())
	}
	if db.Orders.Rows() != 10_000 {
		t.Errorf("orders rows = %d, want lineitem/4", db.Orders.Rows())
	}
	// The paper's ~29 MiB extendedprice dictionary, scaled by 64.
	ep := db.Lineitem.MustColumn("l_extendedprice")
	want := uint64(nomExtendedPrice / 64 * 4)
	if got := ep.Dict.Bytes(); got != want {
		t.Errorf("extendedprice dictionary = %d bytes, want %d", got, want)
	}
	// Small enumerated domains are not scaled.
	if got := db.Lineitem.MustColumn("l_rfls").Dict.Len(); got != 6 {
		t.Errorf("l_rfls distinct = %d, want 6", got)
	}
	if got := db.Customer.MustColumn("c_nationkey").Dict.Len(); got != 25 {
		t.Errorf("c_nationkey distinct = %d, want 25", got)
	}
}

func TestLoadValidation(t *testing.T) {
	space := memory.NewSpace()
	if _, err := Load(space, workload.NewRand(1), Spec{Scale: 1}); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestClusteredKeysAscend(t *testing.T) {
	db, _ := testDB(t)
	ok := db.Lineitem.MustColumn("l_orderkey")
	prev := int64(-1)
	for i := 0; i < ok.Rows(); i += 97 {
		v := ok.Value(i)
		if v < prev {
			t.Fatalf("l_orderkey not ascending at row %d: %d < %d", i, v, prev)
		}
		prev = v
	}
	// Covers the domain roughly.
	if ok.Value(ok.Rows()-1) < int64(ok.Dict.Len())/2 {
		t.Error("clustered keys do not span the domain")
	}
}

// TestEncodeClusteredMatchesRowLoop pins encodeClustered to the
// per-row formula it packed before it packed runs, at row counts that
// end inside a run and a domain wider and narrower than the rows.
func TestEncodeClusteredMatchesRowLoop(t *testing.T) {
	for _, tc := range []struct {
		rows     int
		distinct int64
	}{{1000, 250}, {777, 100_000}, {256, 256}} {
		col, err := encodeClustered(memory.NewSpace(), "k", tc.rows, tc.distinct)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.rows; i++ {
			if got, want := col.Codes.Get(i), uint32(int64(i)*tc.distinct/int64(tc.rows)); got != want {
				t.Fatalf("%d rows over %d: row %d holds code %d, want %d", tc.rows, tc.distinct, i, got, want)
			}
		}
	}
}

func TestTableLookup(t *testing.T) {
	db, _ := testDB(t)
	for _, name := range []string{"lineitem", "orders", "customer", "part", "supplier"} {
		if _, err := db.Table(name); err != nil {
			t.Errorf("Table(%q): %v", name, err)
		}
	}
	if _, err := db.Table("nation"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestSpecsCount(t *testing.T) {
	if len(specs) != 22 {
		t.Fatalf("%d query specs, want 22", len(specs))
	}
	for i, s := range specs {
		if s.Name == "" || len(s.Ops) == 0 || s.Comment == "" {
			t.Errorf("spec %d (%s) incomplete", i+1, s.Name)
		}
	}
}

func TestNewQueryBounds(t *testing.T) {
	db, space := testDB(t)
	if _, err := NewQuery(db, space, 0); err == nil {
		t.Error("query 0 accepted")
	}
	if _, err := NewQuery(db, space, 23); err == nil {
		t.Error("query 23 accepted")
	}
}

// TestAllQueriesPlan verifies every pipeline resolves its tables and
// columns and produces well-formed phases.
func TestAllQueriesPlan(t *testing.T) {
	db, space := testDB(t)
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 22; n++ {
		q, err := NewQuery(db, space, n)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		phases, err := q.Plan(4, rng)
		if err != nil {
			t.Fatalf("Q%d plan: %v", n, err)
		}
		if len(phases) == 0 {
			t.Fatalf("Q%d: no phases", n)
		}
		for _, ph := range phases {
			if len(ph.Kernels) == 0 || len(ph.Kernels) > 4 {
				t.Errorf("Q%d phase %q has %d kernels", n, ph.Name, len(ph.Kernels))
			}
			// Figure 11 setup: TPC-H jobs keep the full cache.
			if ph.CUID != core.Sensitive {
				t.Errorf("Q%d phase %q CUID = %v, want Sensitive", n, ph.Name, ph.CUID)
			}
		}
	}
}

func TestPlanReusesState(t *testing.T) {
	db, space := testDB(t)
	q, err := NewQuery(db, space, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if _, err := q.Plan(4, rng); err != nil {
		t.Fatal(err)
	}
	allocated := space.Allocated()
	if _, err := q.Plan(4, rng); err != nil {
		t.Fatal(err)
	}
	if got := space.Allocated(); got != allocated {
		t.Errorf("replanning allocated %d new bytes", got-allocated)
	}
}

// TestQueryRunsOnEngine executes a multi-op query end to end.
func TestQueryRunsOnEngine(t *testing.T) {
	db, space := testDB(t)
	cfg := cachesim.DefaultConfig().Scaled(64)
	cfg.Cores = 4
	m, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(m, core.DefaultPolicy(cfg.LLC.Size, cfg.LLC.Ways))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(db, space, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]engine.StreamSpec{{Query: q, Cores: []int{0, 1, 2, 3}}},
		engine.RunOptions{Duration: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rows == 0 {
		t.Error("Q7 made no progress")
	}
}
