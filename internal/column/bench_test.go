package column

import (
	"math/rand"
	"testing"

	"cachepart/internal/memory"
)

// BenchmarkPackRun measures the run writer per code, in runs of 256
// as the column generators write them.
func BenchmarkPackRun(b *testing.B) {
	space := memory.NewSpace()
	v, _ := NewPackedVector(space, "b", 1<<20, 20)
	var run [256]uint32
	for j := range run {
		run[j] = uint32(j) * 4099 & 0xFFFFF
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(run) {
		v.PackRun(i&(1<<20-1), run[:])
	}
}

// BenchmarkPackedVectorSet measures the Set oracle per code, the
// baseline BenchmarkPackRun is read against.
func BenchmarkPackedVectorSet(b *testing.B) {
	space := memory.NewSpace()
	v, _ := NewPackedVector(space, "b", 1<<20, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Set(i&(1<<20-1), uint32(i)&0xFFFFF)
	}
}

func BenchmarkPackedVectorGet(b *testing.B) {
	space := memory.NewSpace()
	v, _ := NewPackedVector(space, "b", 1<<20, 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < v.Len(); i++ {
		v.Set(i, rng.Uint32()&0xFFFFF)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += v.Get(i & (1<<20 - 1))
	}
	_ = sink
}

func BenchmarkCountInRange(b *testing.B) {
	space := memory.NewSpace()
	v, _ := NewPackedVector(space, "b", 1<<16, 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < v.Len(); i++ {
		v.Set(i, rng.Uint32()&0xFFFFF)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += v.CountInRange(0, v.Len(), 1000, 500_000)
	}
	_ = sink
}

func BenchmarkInvertedIndexLookup(b *testing.B) {
	space := memory.NewSpace()
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 10)
	}
	c, _ := EncodeDense(space, "b", vals, 0, 1<<10-1, 4)
	ix, _ := BuildInvertedIndex(space, c)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(ix.Lookup(int64(i) & (1<<10 - 1)))
	}
	_ = sink
}
