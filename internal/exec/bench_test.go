package exec

import (
	"math/rand"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/column"
	"cachepart/internal/memory"
)

func benchCtx(b *testing.B) (*Ctx, *memory.Space) {
	b.Helper()
	cfg := cachesim.DefaultConfig().Scaled(16)
	cfg.Cores = 2
	m, err := cachesim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return &Ctx{M: m, Core: 0}, memory.NewSpace()
}

func benchColumn(b *testing.B, space *memory.Space, name string, n int, distinct int64) *column.Column {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	dict, err := column.NewDenseDictionary(space, name, 1, distinct, column.DefaultEntrySize)
	if err != nil {
		b.Fatal(err)
	}
	codes, err := column.NewPackedVector(space, name, n, dict.CodeBits())
	if err != nil {
		b.Fatal(err)
	}
	var run [256]uint32
	for from := 0; from < n; from += len(run) {
		r := run[:min(len(run), n-from)]
		for j := range r {
			r[j] = uint32(rng.Int63n(distinct))
		}
		codes.PackRun(from, r)
	}
	return &column.Column{Name: name, Dict: dict, Codes: codes}
}

// BenchmarkColumnScanKernel measures one scan execution over a 2^20-row
// column per op.
func BenchmarkColumnScanKernel(b *testing.B) {
	ctx, space := benchCtx(b)
	col := benchColumn(b, space, "scan", 1<<20, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := NewColumnScan(col, 0, col.Rows(), 1)
		if err != nil {
			b.Fatal(err)
		}
		Drive(ctx, scan, 4096)
	}
}

// BenchmarkAggLocalKernel measures one local aggregation over 2^18 rows
// per op, the full per-row path: two sequential column reads, one
// dictionary read, one table probe.
func BenchmarkAggLocalKernel(b *testing.B) {
	ctx, space := benchCtx(b)
	groups := benchColumn(b, space, "g", 1<<18, 1<<12)
	values := benchColumn(b, space, "v", 1<<18, 1<<18)
	tab := NewAggTable(space, "t", 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := NewAggLocal(groups, values, 0, groups.Rows(), tab)
		if err != nil {
			b.Fatal(err)
		}
		Drive(ctx, agg, 1024)
	}
}

func BenchmarkAggTableUpdate(b *testing.B) {
	ctx, space := benchCtx(b)
	tab := NewAggTable(space, "t", 1<<14)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, 1<<14)
	for i := range keys {
		keys[i] = rng.Uint32() & (1<<14 - 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.UpdateMax(ctx, keys[i&(1<<14-1)], int64(i))
	}
}

// BenchmarkJoinProbeKernel measures one probe of 2^20 foreign keys into
// a 2^22-key bit vector per op.
func BenchmarkJoinProbeKernel(b *testing.B) {
	ctx, space := benchCtx(b)
	fk := benchColumn(b, space, "fk", 1<<20, 1<<22)
	bv, _ := NewBitVector(space, "bv", 1, 1<<22)
	bv.SetAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe, err := NewJoinProbe(fk, 0, fk.Rows(), bv)
		if err != nil {
			b.Fatal(err)
		}
		Drive(ctx, probe, 4096)
	}
}
