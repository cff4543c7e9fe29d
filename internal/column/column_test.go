package column

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cachepart/internal/memory"
)

func TestDenseDictionary(t *testing.T) {
	s := memory.NewSpace()
	d, err := NewDenseDictionary(s, "x", 1, 1_000_000, DefaultEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1_000_000 {
		t.Errorf("Len = %d", d.Len())
	}
	// The paper: 10^6 distinct INTs -> 4 MiB dictionary.
	if got := d.Bytes(); got != 4_000_000 {
		t.Errorf("Bytes = %d, want 4000000", got)
	}
	if got := d.Value(0); got != 1 {
		t.Errorf("Value(0) = %d", got)
	}
	if got := d.Value(999_999); got != 1_000_000 {
		t.Errorf("Value(last) = %d", got)
	}
	if c, ok := d.CodeOf(500_000); !ok || c != 499_999 {
		t.Errorf("CodeOf = %d, %v", c, ok)
	}
	if _, ok := d.CodeOf(0); ok {
		t.Error("CodeOf below range should fail")
	}
	if _, ok := d.CodeOf(1_000_001); ok {
		t.Error("CodeOf above range should fail")
	}
	// 10^6 values need 20 bits, as in the paper.
	if got := d.CodeBits(); got != 20 {
		t.Errorf("CodeBits = %d, want 20", got)
	}
}

func TestDenseDictionaryLowerBound(t *testing.T) {
	s := memory.NewSpace()
	d, _ := NewDenseDictionary(s, "x", 10, 19, 4)
	cases := []struct {
		v    int64
		want uint32
	}{
		{5, 0}, {10, 0}, {15, 5}, {19, 9}, {20, 10}, {100, 10},
	}
	for _, c := range cases {
		if got := d.LowerBound(c.v); got != c.want {
			t.Errorf("LowerBound(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestDictionaryErrors(t *testing.T) {
	s := memory.NewSpace()
	if _, err := NewDenseDictionary(s, "x", 5, 4, 4); err == nil {
		t.Error("empty range should fail")
	}
	for _, r := range [][2]int64{
		{0, 1 << 32},
		{0, 1<<32 - 1}, // 2^32 values: one more than a uint32 count holds
		{math.MinInt64, math.MaxInt64},
		{-1, math.MaxInt64},
	} {
		if _, err := NewDenseDictionary(s, "x", r[0], r[1], 4); err == nil {
			t.Errorf("[%d, %d]: a domain beyond the 32-bit code space should fail", r[0], r[1])
		}
	}
	// The widest domain that fits: 2^32−1 values, 32-bit codes.
	d, err := NewDenseDictionary(s, "x", 0, 1<<32-2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1<<32-1 || d.CodeBits() != 32 {
		t.Errorf("[0, 2^32-2]: Len %d, CodeBits %d; want 2^32-1, 32", d.Len(), d.CodeBits())
	}
	// A domain that ends at MaxInt64 still finds its last value.
	top, err := NewDenseDictionary(s, "top", math.MaxInt64-5, math.MaxInt64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := top.CodeOf(math.MaxInt64); !ok || c != 5 {
		t.Errorf("CodeOf(MaxInt64) = %d, %v; want 5, true", c, ok)
	}
}

func TestDictionaryAddrWithinRegion(t *testing.T) {
	s := memory.NewSpace()
	d, _ := NewDenseDictionary(s, "x", 1, 100, 4)
	for code := uint32(0); code < 100; code += 13 {
		if !d.Region().Contains(d.Addr(code)) {
			t.Errorf("Addr(%d) outside region", code)
		}
	}
}

func TestDictionaryCodeBitsEdge(t *testing.T) {
	s := memory.NewSpace()
	one, _ := NewDenseDictionary(s, "x", 7, 7, 4)
	if got := one.CodeBits(); got != 1 {
		t.Errorf("single-entry dictionary CodeBits = %d, want 1", got)
	}
	two, _ := NewDenseDictionary(s, "y", 0, 1, 4)
	if got := two.CodeBits(); got != 1 {
		t.Errorf("2-entry CodeBits = %d, want 1", got)
	}
	three, _ := NewDenseDictionary(s, "z", 0, 2, 4)
	if got := three.CodeBits(); got != 2 {
		t.Errorf("3-entry CodeBits = %d, want 2", got)
	}
}

func TestPackedVectorRoundTrip(t *testing.T) {
	for _, bitw := range []uint{1, 3, 7, 20, 31, 32} {
		s := memory.NewSpace()
		n := 1000
		v, err := NewPackedVector(s, "p", n, bitw)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bitw)))
		want := make([]uint32, n)
		var max uint32 = 1<<bitw - 1
		if bitw == 32 {
			max = ^uint32(0)
		}
		for i := range want {
			want[i] = rng.Uint32() & max
			v.Set(i, want[i])
		}
		for i := range want {
			if got := v.Get(i); got != want[i] {
				t.Fatalf("bits=%d: Get(%d) = %d, want %d", bitw, i, got, want[i])
			}
		}
	}
}

func TestPackedVectorOverwrite(t *testing.T) {
	s := memory.NewSpace()
	v, _ := NewPackedVector(s, "p", 10, 20)
	v.Set(3, 0xABCDE)
	v.Set(3, 0x12345)
	if got := v.Get(3); got != 0x12345 {
		t.Errorf("after overwrite Get = %#x", got)
	}
	// Neighbours untouched.
	if v.Get(2) != 0 || v.Get(4) != 0 {
		t.Error("overwrite leaked into neighbours")
	}
}

func TestPackedVectorBounds(t *testing.T) {
	s := memory.NewSpace()
	v, _ := NewPackedVector(s, "p", 4, 8)
	for _, f := range []func(){
		func() { v.Get(-1) },
		func() { v.Get(4) },
		func() { v.Set(4, 0) },
		func() { v.Set(0, 256) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	if _, err := NewPackedVector(s, "p", -1, 8); err == nil {
		t.Error("negative length should fail")
	}
	if _, err := NewPackedVector(s, "p", 4, 0); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewPackedVector(s, "p", 4, 33); err == nil {
		t.Error("width 33 should fail")
	}
}

func TestPackedVectorGeometry(t *testing.T) {
	s := memory.NewSpace()
	v, _ := NewPackedVector(s, "p", 1_000_000, 20)
	// 10^6 codes at 20 bits = 2.5 MB.
	if got := v.Bytes(); got < 2_500_000 || got > 2_500_064 {
		t.Errorf("Bytes = %d, want ~2.5e6", got)
	}
	if v.LineOfRow(0) != 0 {
		t.Error("row 0 not in line 0")
	}
	if v.LineOfRow(25) != 0 || v.LineOfRow(26) != 1 {
		t.Errorf("line boundary wrong: row25=%d row26=%d", v.LineOfRow(25), v.LineOfRow(26))
	}
	if !v.Region().Contains(v.Addr(999_999)) {
		t.Error("Addr of last row outside region")
	}
}

func TestPackedVectorProperty(t *testing.T) {
	s := memory.NewSpace()
	v, _ := NewPackedVector(s, "p", 257, 20)
	f := func(idx uint16, code uint32) bool {
		i := int(idx) % 257
		c := code & 0xFFFFF
		v.Set(i, c)
		return v.Get(i) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountInRange(t *testing.T) {
	s := memory.NewSpace()
	v, _ := NewPackedVector(s, "p", 100, 8)
	for i := 0; i < 100; i++ {
		v.Set(i, uint32(i))
	}
	if got := v.CountInRange(0, 100, 10, 20); got != 10 {
		t.Errorf("CountInRange = %d, want 10", got)
	}
	if got := v.CountInRange(50, 100, 0, 60); got != 10 {
		t.Errorf("CountInRange subrange = %d, want 10", got)
	}
	if got := v.CountInRange(0, 100, 200, 250); got != 0 {
		t.Errorf("CountInRange empty = %d", got)
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	s := memory.NewSpace()
	vals := []int64{5, 3, 5, 9, 3, 3, 7}
	c, err := EncodeDense(s, "c", vals, 3, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != len(vals) {
		t.Fatalf("Rows = %d", c.Rows())
	}
	for i, want := range vals {
		if got := c.Value(i); got != want {
			t.Errorf("Value(%d) = %d, want %d", i, got, want)
		}
	}
	// The dictionary spans the whole domain, values the column lacks
	// included.
	if c.Dict.Len() != 7 {
		t.Errorf("dictionary size = %d, want 7", c.Dict.Len())
	}
	if c.Footprint() == 0 {
		t.Error("zero footprint")
	}
}

func TestEncodeDenseRoundTrip(t *testing.T) {
	s := memory.NewSpace()
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = 1 + rng.Int63n(1000)
	}
	c, err := EncodeDense(s, "c", vals, 1, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got := c.Value(i); got != want {
			t.Fatalf("Value(%d) = %d, want %d", i, got, want)
		}
	}
	// The same words as the per-row Set loop EncodeDense ran before
	// it packed runs.
	oracle, _ := NewPackedVector(memory.NewSpace(), "c", len(vals), c.Codes.Bits())
	for i, v := range vals {
		oracle.Set(i, uint32(v-1))
	}
	if !slices.Equal(c.Codes.words, oracle.words) {
		t.Error("EncodeDense wrote other words than the Set loop")
	}
	// Out-of-domain value rejected, in the first run or a later one.
	if _, err := EncodeDense(s, "d", []int64{0}, 1, 1000, 4); err == nil {
		t.Error("out-of-domain value should fail")
	}
	if _, err := EncodeDense(s, "e", append(vals[:300:300], 1001), 1, 1000, 4); err == nil {
		t.Error("out-of-domain value in row 300 should fail")
	}
}

func TestTable(t *testing.T) {
	s := memory.NewSpace()
	a, _ := EncodeDense(s, "a", []int64{1, 2, 3}, 1, 3, 4)
	b, _ := EncodeDense(s, "b", []int64{4, 5, 6}, 4, 6, 4)
	short, _ := EncodeDense(s, "short", []int64{1}, 1, 1, 4)
	dup, _ := EncodeDense(s, "a", []int64{9, 9, 9}, 9, 9, 4)

	tab := NewTable("t")
	if tab.Rows() != 0 {
		t.Error("empty table should have 0 rows")
	}
	if err := tab.AddColumn(a); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(b); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(short); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := tab.AddColumn(dup); err == nil {
		t.Error("duplicate name should fail")
	}
	if tab.Rows() != 3 {
		t.Errorf("Rows = %d, want 3", tab.Rows())
	}
	if got, err := tab.Column("b"); err != nil || got != b {
		t.Errorf("Column(b) = %v, %v", got, err)
	}
	if _, err := tab.Column("zzz"); err == nil {
		t.Error("missing column should fail")
	}
	if tab.MustColumn("a") != a {
		t.Error("MustColumn(a) wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustColumn missing should panic")
			}
		}()
		tab.MustColumn("zzz")
	}()
	if tab.Footprint() == 0 {
		t.Error("zero table footprint")
	}
}

func TestInvertedIndex(t *testing.T) {
	s := memory.NewSpace()
	vals := []int64{1, 2, 1, 3, 2, 1}
	c, _ := EncodeDense(s, "k", vals, 1, 3, 4)
	ix, err := BuildInvertedIndex(s, c)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int64][]uint32{
		1: {0, 2, 5},
		2: {1, 4},
		3: {3},
	}
	for v, want := range cases {
		got := ix.Lookup(v)
		if len(got) != len(want) {
			t.Fatalf("Lookup(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Lookup(%d) = %v, want %v", v, got, want)
			}
		}
	}
	if got := ix.Lookup(99); got != nil {
		t.Errorf("Lookup(99) = %v, want nil", got)
	}
	if ix.Column() != c {
		t.Error("Column() wrong")
	}
	// Addresses land in the region.
	for code := uint32(0); code < 3; code++ {
		if !ix.Region().Contains(ix.HeaderAddr(code)) {
			t.Errorf("HeaderAddr(%d) outside region", code)
		}
		for k := range ix.PostingsOf(code) {
			if !ix.Region().Contains(ix.PostingAddr(code, k)) {
				t.Errorf("PostingAddr(%d,%d) outside region", code, k)
			}
		}
	}
	if ix.Bytes() != 3*8+6*4 {
		t.Errorf("Bytes = %d, want %d", ix.Bytes(), 3*8+6*4)
	}
}

func TestInvertedIndexLookupMatchesColumn(t *testing.T) {
	s := memory.NewSpace()
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(50)
	}
	c, _ := EncodeDense(s, "k", vals, 0, 49, 4)
	ix, _ := BuildInvertedIndex(s, c)
	for v := int64(0); v < 50; v++ {
		rows := ix.Lookup(v)
		for _, r := range rows {
			if c.Value(int(r)) != v {
				t.Fatalf("row %d holds %d, want %d", r, c.Value(int(r)), v)
			}
		}
		// Count agrees with a scan.
		n := 0
		for i := range vals {
			if vals[i] == v {
				n++
			}
		}
		if n != len(rows) {
			t.Fatalf("value %d: index has %d rows, scan found %d", v, len(rows), n)
		}
	}
}
