package exec

import (
	"math/rand"
	"testing"

	"cachepart/internal/column"
)

func TestWideAggLocalMatchesReference(t *testing.T) {
	ctx, space := testCtx(t)
	n := 10_000
	groups := uniformCol(t, space, "g", n, 0, 49, 11)
	v1 := uniformCol(t, space, "v1", n, 1, 1000, 12)
	v2 := uniformCol(t, space, "v2", n, 1, 1000, 13)
	tab := NewAggTable(space, "t", 50)
	agg, err := NewWideAggLocal(groups, []*column.Column{v1, v2}, 0, n, tab)
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, agg, 333)

	want := map[uint32]int64{}
	for i := 0; i < n; i++ {
		want[groups.Codes.Get(i)] += v1.Value(i) + v2.Value(i)
	}
	if tab.Len() != len(want) {
		t.Fatalf("groups = %d, want %d", tab.Len(), len(want))
	}
	for g, wv := range want {
		if v, ok := tab.Get(g); !ok || v != wv {
			t.Errorf("group %d = %d, want %d", g, v, wv)
		}
	}
}

func TestWideAggLocalSampling(t *testing.T) {
	ctx, space := testCtx(t)
	n := 1000
	groups := uniformCol(t, space, "g", n, 0, 4, 14)
	vals := uniformCol(t, space, "v", n, 1, 100, 15)
	tab := NewAggTable(space, "t", 5)
	agg, _ := NewWideAggLocal(groups, []*column.Column{vals}, 0, n, tab)
	agg.SampleEvery = 10
	Drive(ctx, agg, 100)

	want := map[uint32]int64{}
	for i := 0; i < n; i += 10 {
		want[groups.Codes.Get(i)] += vals.Value(i)
	}
	for g, wv := range want {
		if v, ok := tab.Get(g); !ok || v != wv {
			t.Errorf("group %d = %d, want %d", g, v, wv)
		}
	}
	if tab.Len() != len(want) {
		t.Errorf("groups = %d, want %d", tab.Len(), len(want))
	}
}

func TestWideAggLocalSamplingReducesDictionaryTraffic(t *testing.T) {
	ctx, space := testCtx(t)
	n := 50_000
	groups := uniformCol(t, space, "g", n, 0, 9, 16)
	vals := uniformCol(t, space, "v", n, 1, 1_000_000, 17)

	run := func(every int) uint64 {
		tab := NewAggTable(space, "t", 10)
		agg, _ := NewWideAggLocal(groups, []*column.Column{vals}, 0, n, tab)
		agg.SampleEvery = every
		before := ctx.M.Stats(0).Reads
		Drive(ctx, agg, 1000)
		return ctx.M.Stats(0).Reads - before
	}
	full := run(1)
	sampled := run(100)
	if sampled*10 > full {
		t.Errorf("sampling 1%% still issued %d of %d reads", sampled, full)
	}
}

func TestWideAggLocalValidation(t *testing.T) {
	_, space := testCtx(t)
	g := uniformCol(t, space, "g", 10, 0, 3, 1)
	v := uniformCol(t, space, "v", 10, 0, 3, 1)
	short := uniformCol(t, space, "s", 5, 0, 3, 1)
	tab := NewAggTable(space, "t", 4)
	if _, err := NewWideAggLocal(g, nil, 0, 10, tab); err == nil {
		t.Error("no value columns accepted")
	}
	if _, err := NewWideAggLocal(g, []*column.Column{short}, 0, 10, tab); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := NewWideAggLocal(g, []*column.Column{v}, 0, 11, tab); err == nil {
		t.Error("bad range accepted")
	}
}

func TestPKLookupProject(t *testing.T) {
	ctx, space := testCtx(t)
	n := 4000
	rng := rand.New(rand.NewSource(20))
	docs := make([]int64, n)
	attr := make([]int64, n)
	pay := make([]int64, n)
	for i := range docs {
		docs[i] = 1 + rng.Int63n(100)
		attr[i] = docs[i] % 4 // consistent per document
		pay[i] = int64(i)
	}
	docCol, _ := column.EncodeDense(space, "doc", docs, 1, 100, 4)
	attrCol, _ := column.EncodeDense(space, "attr", attr, 0, 3, 4)
	payCol, _ := column.EncodeDense(space, "pay", pay, 0, int64(n-1), 4)
	ix, _ := column.BuildInvertedIndex(space, docCol)

	op, err := NewPKLookupProject(ix, 42, []*column.Column{attrCol}, []int64{42 % 4}, []*column.Column{payCol})
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, op, 64)
	var want []uint32
	for i := range docs {
		if docs[i] == 42 {
			want = append(want, uint32(i))
		}
	}
	got := op.Rows()
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
	if op.Projected != int64(len(want)) {
		t.Errorf("Projected = %d, want %d", op.Projected, len(want))
	}

	// Residual mismatch filters everything out.
	if op, err = NewPKLookupProject(ix, 42, []*column.Column{attrCol}, []int64{(42 % 4) + 1}, []*column.Column{payCol}); err != nil {
		t.Fatal(err)
	}
	Drive(ctx, op, 64)
	if len(op.Rows()) != 0 {
		t.Errorf("mismatched residual still returned %d rows", len(op.Rows()))
	}

	// Missing index key.
	if op, err = NewPKLookupProject(ix, 999, []*column.Column{attrCol}, []int64{0}, []*column.Column{payCol}); err != nil {
		t.Fatal(err)
	}
	Drive(ctx, op, 64)
	if len(op.Rows()) != 0 || op.Projected != 0 {
		t.Error("missing key should produce nothing")
	}
}

func TestPKLookupProjectValidation(t *testing.T) {
	_, space := testCtx(t)
	c := uniformCol(t, space, "c", 10, 0, 3, 1)
	ix, _ := column.BuildInvertedIndex(space, c)
	if _, err := NewPKLookupProject(nil, 1, nil, nil, []*column.Column{c}); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := NewPKLookupProject(ix, 1, []*column.Column{c}, nil, []*column.Column{c}); err == nil {
		t.Error("residual mismatch accepted")
	}
	if _, err := NewPKLookupProject(ix, 1, nil, nil, nil); err == nil {
		t.Error("empty projection accepted")
	}
}
