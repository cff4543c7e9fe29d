package exec

import (
	"math/rand"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// testConfig is a two-core machine with a 64 KiB LLC.
func testConfig() cachesim.Config {
	return cachesim.Config{
		Cores:         2,
		FreqHz:        2e9,
		L1:            cachesim.Geometry{Size: 1 << 10, Ways: 2},
		L2:            cachesim.Geometry{Size: 4 << 10, Ways: 4},
		LLC:           cachesim.Geometry{Size: 64 << 10, Ways: 16},
		L1Latency:     4,
		L2Latency:     12,
		LLCLatency:    40,
		DRAMLatency:   160,
		DRAMBandwidth: 32e9,
		PrefetchDepth: 16,
		InclusiveLLC:  true,
		NumCLOS:       4,
	}
}

func testCtx(t *testing.T) (*Ctx, *memory.Space) {
	t.Helper()
	return ctxOn(t, testConfig())
}

func ctxOn(t *testing.T, cfg cachesim.Config) (*Ctx, *memory.Space) {
	t.Helper()
	m, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Ctx{M: m, Core: 0}, memory.NewSpace()
}

func uniformCol(t *testing.T, space *memory.Space, name string, n int, lo, hi int64, seed int64) *column.Column {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = lo + rng.Int63n(hi-lo+1)
	}
	c, err := column.EncodeDense(space, name, vals, lo, hi, column.DefaultEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColumnScanCount(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 10_000, 1, 100, 1)
	bound := int64(60)
	scan, err := NewColumnScan(col, 0, col.Rows(), bound)
	if err != nil {
		t.Fatal(err)
	}
	rows := Drive(ctx, scan, 1000)
	if rows != int64(col.Rows()) {
		t.Errorf("processed %d rows, want %d", rows, col.Rows())
	}
	var want int64
	for i := 0; i < col.Rows(); i++ {
		if col.Value(i) > bound {
			want++
		}
	}
	if scan.Count != want {
		t.Errorf("Count = %d, want %d", scan.Count, want)
	}
}

func TestColumnScanRangeValidation(t *testing.T) {
	_, space := testCtx(t)
	col := uniformCol(t, space, "x", 10, 1, 5, 1)
	for _, r := range [][2]int{{-1, 5}, {0, 11}, {6, 3}} {
		if _, err := NewColumnScan(col, r[0], r[1], 2); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

func TestColumnScanTouchesEachLineOnce(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 100_000, 1, 1_000_000, 2)
	scan, _ := NewColumnScan(col, 0, col.Rows(), 0)
	before := ctx.M.Stats(0).Reads
	Drive(ctx, scan, 4096)
	reads := ctx.M.Stats(0).Reads - before
	wantLines := col.Codes.Region().Lines()
	if reads > wantLines+2 {
		t.Errorf("scan issued %d reads for %d lines", reads, wantLines)
	}
	if reads < wantLines-2 {
		t.Errorf("scan issued only %d reads for %d lines", reads, wantLines)
	}
	// No dictionary access at all: the scan runs on compressed codes.
	dict := col.Dict.Region()
	if got := ctx.M.LLCOccupancy(dict.Base, dict.Base+memory.Addr(dict.Size)); got != 0 {
		t.Errorf("scan pulled %d dictionary lines into the LLC", got)
	}
}

// TestColumnScanAccessSequence checks Step's incremental line cursor
// against a per-row reference that asks LineOfRow about every row: the
// lines each Step reads, the cost it charges, the rows it reports and
// the final Count must agree for code widths that do and do not divide
// a line, a From that is not line-aligned, and budgets that never line
// up with anything. The lines read are seen through the machine: with
// the prefetcher off and the column well inside the LLC, a line is
// LLC-resident exactly when the scan has read it.
func TestColumnScanAccessSequence(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDepth = 0
	for _, bits := range []uint{15, 20, 27, 32} {
		for _, budget := range []int{1, 7, 33, 101, 4096} {
			ctx, space := ctxOn(t, cfg)
			const n = 5000
			col := uniformCol(t, space, "x", n, 1, int64(1)<<bits-1, int64(bits))
			codes := col.Codes
			if codes.Bits() != bits {
				t.Fatalf("encoded %d-bit codes, want %d", codes.Bits(), bits)
			}
			from, to := 37, n-11
			if codes.LineOfRow(from) != codes.LineOfRow(from-1) || codes.LineOfRow(to) != codes.LineOfRow(to-1) {
				t.Fatalf("bits=%d: rows %d and %d were meant to be mid-line", bits, from, to)
			}
			bound := int64(1) << (bits - 1)
			scan, err := NewColumnScan(col, from, to, bound)
			if err != nil {
				t.Fatal(err)
			}
			region := codes.Region()
			regionEnd := region.Base + memory.Addr(region.Size)
			cur, done := from, false
			var wantCount int64
			resident := 0
			for step := 0; !done; step++ {
				// Reference: whole lines until the budget is spent.
				var wantAddrs []memory.Addr
				wantRows := 0
				for wantRows < budget && cur < to {
					line := codes.LineOfRow(cur)
					wantAddrs = append(wantAddrs, codes.Region().Addr(line*memory.LineSize))
					for ; cur < to && codes.LineOfRow(cur) == line; cur++ {
						if col.Value(cur) > bound {
							wantCount++
						}
						wantRows++
					}
				}
				before := ctx.M.Stats(0)
				var rows int
				rows, done = scan.Step(ctx, budget)
				if rows != wantRows || done != (cur >= to) {
					t.Fatalf("bits=%d budget=%d step %d: Step = (%d, %v), want (%d, %v)", bits, budget, step, rows, done, wantRows, cur >= to)
				}
				// One read and one line's compute cost per wanted line;
				// each access retires an instruction of its own.
				lines := uint64(len(wantAddrs))
				d := ctx.M.Stats(0).Sub(before)
				if d.Reads != lines || d.Writes != 0 ||
					d.ComputeTicks != int64(lines)*ScanCyclesPerLine*cachesim.TicksPerCycle ||
					d.Instructions != lines*(ScanInstrsPerLine+1) {
					t.Fatalf("bits=%d budget=%d step %d: %d reads, %d writes, %d compute ticks, %d instructions for %d lines",
						bits, budget, step, d.Reads, d.Writes, d.ComputeTicks, d.Instructions, lines)
				}
				for _, a := range wantAddrs {
					if ctx.M.LLCOccupancy(a, a+memory.LineSize) != 1 {
						t.Fatalf("bits=%d budget=%d step %d: line %#x was not read", bits, budget, step, a)
					}
				}
				resident += len(wantAddrs)
				if got := ctx.M.LLCOccupancy(region.Base, regionEnd); got != resident {
					t.Fatalf("bits=%d budget=%d step %d: %d lines of the column in the LLC, want the %d read so far", bits, budget, step, got, resident)
				}
			}
			if scan.Count != wantCount {
				t.Errorf("bits=%d budget=%d: Count = %d, want %d", bits, budget, scan.Count, wantCount)
			}
		}
	}
}

func TestFirstRowOfLine(t *testing.T) {
	_, space := testCtx(t)
	v, _ := column.NewPackedVector(space, "p", 1000, 20)
	// Line 0 holds bits [0,512): rows 0..25 start there (row 25 starts
	// at bit 500); row 26 starts at bit 520 in line 1.
	if got := firstRowOfLine(v, 0); got != 0 {
		t.Errorf("firstRowOfLine(0) = %d", got)
	}
	if got := firstRowOfLine(v, 1); got != 26 {
		t.Errorf("firstRowOfLine(1) = %d, want 26", got)
	}
	// Consistency with LineOfRow.
	for line := uint64(0); line < 10; line++ {
		r := firstRowOfLine(v, line)
		if v.LineOfRow(r) != line {
			t.Errorf("row %d not in line %d", r, line)
		}
		if r > 0 && v.LineOfRow(r-1) >= line {
			t.Errorf("row %d already in line %d", r-1, line)
		}
	}
}

func TestAggTableUpdateMaxAndSum(t *testing.T) {
	ctx, space := testCtx(t)
	tab := NewAggTable(space, "t", 100)
	tab.UpdateMax(ctx, 5, 10)
	tab.UpdateMax(ctx, 5, 3)
	tab.UpdateMax(ctx, 5, 42)
	if v, ok := tab.Get(5); !ok || v != 42 {
		t.Errorf("Get(5) = %d, %v; want 42", v, ok)
	}
	tab.UpdateSum(ctx, 7, 10)
	tab.UpdateSum(ctx, 7, 5)
	if v, ok := tab.Get(7); !ok || v != 15 {
		t.Errorf("Get(7) = %d, %v; want 15", v, ok)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
	if _, ok := tab.Get(99); ok {
		t.Error("missing key found")
	}
}

func TestAggTableCollisionsAndGrowth(t *testing.T) {
	ctx, space := testCtx(t)
	tab := NewAggTable(space, "t", 4) // deliberately undersized
	const n = 1000
	for k := uint32(0); k < n; k++ {
		tab.UpdateMax(ctx, k, int64(k)*2)
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	if tab.Grows() == 0 {
		t.Error("expected growth")
	}
	for k := uint32(0); k < n; k++ {
		if v, ok := tab.Get(k); !ok || v != int64(k)*2 {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	seen := 0
	tab.Each(func(k uint32, v int64) { seen++ })
	if seen != n {
		t.Errorf("Each visited %d, want %d", seen, n)
	}
}

func TestAggTableClear(t *testing.T) {
	ctx, space := testCtx(t)
	tab := NewAggTable(space, "t", 10)
	tab.UpdateMax(ctx, 1, 1)
	tab.Clear()
	if tab.Len() != 0 {
		t.Error("Clear left entries")
	}
	if _, ok := tab.Get(1); ok {
		t.Error("Clear left key")
	}
}

func TestAggCapacitySizing(t *testing.T) {
	// The footprint model behind Figure 5: 10^5 groups at 16 B slots
	// and 0.7 load factor is ~2.3 MB per worker.
	c := AggCapacityFor(100_000)
	bytes := uint64(c) * 16
	if bytes < 2_000_000 || bytes > 2_600_000 {
		t.Errorf("capacity for 1e5 groups = %d bytes", bytes)
	}
	if c%4 != 0 {
		t.Error("capacity not line aligned")
	}
	if AggCapacityFor(0) < 4 {
		t.Error("tiny capacity")
	}
}

func TestAggLocalMatchesReference(t *testing.T) {
	ctx, space := testCtx(t)
	groups := uniformCol(t, space, "g", 20_000, 0, 99, 4)
	values := uniformCol(t, space, "v", 20_000, 1, 10_000, 5)
	tab := NewAggTable(space, "local", 100)
	agg, err := NewAggLocal(groups, values, 0, groups.Rows(), tab)
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, agg, 777)

	want := map[uint32]int64{}
	for i := 0; i < groups.Rows(); i++ {
		g := groups.Codes.Get(i)
		v := values.Value(i)
		if cur, ok := want[g]; !ok || v > cur {
			want[g] = v
		}
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

func TestAggLocalValidation(t *testing.T) {
	_, space := testCtx(t)
	g := uniformCol(t, space, "g", 10, 0, 3, 1)
	v := uniformCol(t, space, "v", 20, 0, 3, 1)
	tab := NewAggTable(space, "t", 4)
	if _, err := NewAggLocal(g, v, 0, 10, tab); err == nil {
		t.Error("row mismatch accepted")
	}
	v10 := uniformCol(t, space, "v10", 10, 0, 3, 1)
	if _, err := NewAggLocal(g, v10, 0, 11, tab); err == nil {
		t.Error("bad range accepted")
	}
}

func TestAggMergeCombinesLocals(t *testing.T) {
	ctx, space := testCtx(t)
	l1 := NewAggTable(space, "l1", 10)
	l2 := NewAggTable(space, "l2", 10)
	l1.UpdateMax(ctx, 1, 10)
	l1.UpdateMax(ctx, 2, 20)
	l2.UpdateMax(ctx, 2, 25)
	l2.UpdateMax(ctx, 3, 5)
	global := NewAggTable(space, "g", 10)
	merge := NewAggMerge([]*AggTable{l1, l2}, global)
	Drive(ctx, merge, 7)
	want := map[uint32]int64{1: 10, 2: 25, 3: 5}
	if global.Len() != len(want) {
		t.Fatalf("global has %d groups", global.Len())
	}
	for k, wv := range want {
		if v, ok := global.Get(k); !ok || v != wv {
			t.Errorf("global[%d] = %d, want %d", k, v, wv)
		}
	}
}

func TestAggregationEndToEnd(t *testing.T) {
	// Full two-phase aggregation with two workers on two cores matches
	// a single-pass reference.
	ctx0, space := testCtx(t)
	ctx1 := &Ctx{M: ctx0.M, Core: 1}
	groups := uniformCol(t, space, "g", 10_000, 0, 499, 6)
	values := uniformCol(t, space, "v", 10_000, 1, 1_000_000, 7)

	lt0 := NewAggTable(space, "lt0", 500)
	lt1 := NewAggTable(space, "lt1", 500)
	half := groups.Rows() / 2
	a0, _ := NewAggLocal(groups, values, 0, half, lt0)
	a1, _ := NewAggLocal(groups, values, half, groups.Rows(), lt1)
	Drive(ctx0, a0, 512)
	Drive(ctx1, a1, 512)
	global := NewAggTable(space, "global", 500)
	Drive(ctx0, NewAggMerge([]*AggTable{lt0, lt1}, global), 512)

	want := map[uint32]int64{}
	for i := 0; i < groups.Rows(); i++ {
		g := groups.Codes.Get(i)
		v := values.Value(i)
		if cur, ok := want[g]; !ok || v > cur {
			want[g] = v
		}
	}
	for g, wv := range want {
		if v, ok := global.Get(g); !ok || v != wv {
			t.Fatalf("global[%d] = %d,%v want %d", g, v, ok, wv)
		}
	}
	if global.Len() != len(want) {
		t.Errorf("global groups = %d, want %d", global.Len(), len(want))
	}
}

func TestBitVector(t *testing.T) {
	_, space := testCtx(t)
	bv, err := NewBitVector(space, "bv", 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bv.Len() != 1000 || bv.Bytes() != 125 {
		t.Errorf("Len=%d Bytes=%d", bv.Len(), bv.Bytes())
	}
	bv.Set(1)
	bv.Set(1000)
	bv.Set(500)
	if !bv.Test(1) || !bv.Test(1000) || !bv.Test(500) {
		t.Error("set bits not found")
	}
	if bv.Test(2) || bv.Test(0) || bv.Test(1001) {
		t.Error("unset/out-of-domain bits reported set")
	}
	if bv.PopCount() != 3 {
		t.Errorf("PopCount = %d", bv.PopCount())
	}
	bv.Clear()
	if bv.PopCount() != 0 {
		t.Error("Clear left bits")
	}
	if _, err := NewBitVector(space, "z", 0, 0); err == nil {
		t.Error("empty vector accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Set out of domain should panic")
			}
		}()
		bv.Set(1001)
	}()
}

func TestBitVectorPaperSizes(t *testing.T) {
	// Figure 6: 10^8 keys -> 100 Mbit = 12.5 MB.
	_, space := testCtx(t)
	bv, _ := NewBitVector(space, "bv", 1, 100_000_000)
	if got := bv.Bytes(); got != 12_500_000 {
		t.Errorf("10^8-key bit vector = %d bytes, want 12.5e6", got)
	}
}

func TestFKJoinEndToEnd(t *testing.T) {
	ctx, space := testCtx(t)
	const nKeys = 2000
	// Primary keys 1..nKeys in shuffled order.
	perm := rand.New(rand.NewSource(8)).Perm(nKeys)
	pk := make([]int64, nKeys)
	for i, p := range perm {
		pk[i] = int64(p) + 1
	}
	pkCol, err := column.EncodeDense(space, "p", pk, 1, nKeys, 4)
	if err != nil {
		t.Fatal(err)
	}
	fkCol := uniformCol(t, space, "f", 10_000, 1, nKeys, 9)

	bv, _ := NewBitVector(space, "bv", 1, nKeys)
	build, err := NewJoinBuild(pkCol, 0, pkCol.Rows(), bv)
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, build, 300)
	if bv.PopCount() != nKeys {
		t.Fatalf("built %d bits, want %d", bv.PopCount(), nKeys)
	}
	probe, err := NewJoinProbe(fkCol, 0, fkCol.Rows(), bv)
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, probe, 300)
	// Every foreign key references an existing primary key.
	if probe.Matches != int64(fkCol.Rows()) {
		t.Errorf("Matches = %d, want %d", probe.Matches, fkCol.Rows())
	}

	// Partial build: only even keys -> matches drop accordingly.
	bv.Clear()
	for k := int64(2); k <= nKeys; k += 2 {
		bv.Set(k)
	}
	if probe, err = NewJoinProbe(fkCol, 0, fkCol.Rows(), bv); err != nil {
		t.Fatal(err)
	}
	Drive(ctx, probe, 300)
	var want int64
	for i := 0; i < fkCol.Rows(); i++ {
		if fkCol.Value(i)%2 == 0 {
			want++
		}
	}
	if probe.Matches != want {
		t.Errorf("partial Matches = %d, want %d", probe.Matches, want)
	}
}

func TestJoinValidation(t *testing.T) {
	_, space := testCtx(t)
	col := uniformCol(t, space, "c", 10, 1, 5, 1)
	bv, _ := NewBitVector(space, "bv", 1, 5)
	if _, err := NewJoinBuild(col, 0, 11, bv); err == nil {
		t.Error("bad build range accepted")
	}
	if _, err := NewJoinProbe(col, -1, 5, bv); err == nil {
		t.Error("bad probe range accepted")
	}
}

func TestIndexLookupProject(t *testing.T) {
	ctx, space := testCtx(t)
	// Two key columns; rows where k1=3 and k2=7 are the matches.
	n := 5000
	rng := rand.New(rand.NewSource(10))
	k1 := make([]int64, n)
	k2 := make([]int64, n)
	payload := make([]int64, n)
	for i := range k1 {
		k1[i] = rng.Int63n(10)
		k2[i] = rng.Int63n(10)
		payload[i] = int64(i) * 3
	}
	c1, _ := column.EncodeDense(space, "k1", k1, 0, 9, 4)
	c2, _ := column.EncodeDense(space, "k2", k2, 0, 9, 4)
	pc, _ := column.EncodeDense(space, "pay", payload, 0, int64(n-1)*3, 4)
	ix1, _ := column.BuildInvertedIndex(space, c1)
	ix2, _ := column.BuildInvertedIndex(space, c2)

	op, err := NewIndexLookupProject(
		[]*column.InvertedIndex{ix1, ix2}, []int64{3, 7}, []*column.Column{pc})
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, op, 64)

	var wantRows []uint32
	for i := 0; i < n; i++ {
		if k1[i] == 3 && k2[i] == 7 {
			wantRows = append(wantRows, uint32(i))
		}
	}
	got := op.Rows()
	if len(got) != len(wantRows) {
		t.Fatalf("rows = %d, want %d", len(got), len(wantRows))
	}
	for i := range got {
		if got[i] != wantRows[i] {
			t.Fatalf("row[%d] = %d, want %d", i, got[i], wantRows[i])
		}
	}
	if op.Projected != int64(len(wantRows)) {
		t.Errorf("Projected = %d, want %d", op.Projected, len(wantRows))
	}

	// A missing key yields no rows.
	if op, err = NewIndexLookupProject(
		[]*column.InvertedIndex{ix1, ix2}, []int64{3, 99}, []*column.Column{pc}); err != nil {
		t.Fatal(err)
	}
	Drive(ctx, op, 64)
	if len(op.Rows()) != 0 || op.Projected != 0 {
		t.Errorf("missing key: rows=%d projected=%d", len(op.Rows()), op.Projected)
	}
}

func TestIndexLookupProjectValidation(t *testing.T) {
	_, space := testCtx(t)
	c := uniformCol(t, space, "c", 10, 0, 3, 1)
	ix, _ := column.BuildInvertedIndex(space, c)
	if _, err := NewIndexLookupProject(nil, nil, []*column.Column{c}); err == nil {
		t.Error("no indexes accepted")
	}
	if _, err := NewIndexLookupProject([]*column.InvertedIndex{ix}, []int64{1, 2}, []*column.Column{c}); err == nil {
		t.Error("key/index mismatch accepted")
	}
	if _, err := NewIndexLookupProject([]*column.InvertedIndex{ix}, []int64{1}, nil); err == nil {
		t.Error("no projection accepted")
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, []uint32{2, 3}},
		{[]uint32{1, 5, 9}, []uint32{2, 6, 10}, nil},
		{nil, []uint32{1}, nil},
		{[]uint32{1, 2}, []uint32{1, 2}, []uint32{1, 2}},
	}
	for _, c := range cases {
		got := intersectSorted(append([]uint32(nil), c.a...), c.b)
		if len(got) != len(c.want) {
			t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

func TestDriveDefaultQuantum(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 100, 1, 5, 1)
	scan, _ := NewColumnScan(col, 0, col.Rows(), 0)
	if rows := Drive(ctx, scan, 0); rows != 100 {
		t.Errorf("Drive = %d rows", rows)
	}
}
