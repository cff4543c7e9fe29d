package workload

import (
	"testing"

	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// BenchmarkEncodeUniformDense generates a 2^20-row column of 20-bit
// codes, Q1's shape at 1/4 of the fast scale.
func BenchmarkEncodeUniformDense(b *testing.B) {
	const rows = 1 << 20
	rng := NewRand(1)
	b.SetBytes(rows)
	for b.Loop() {
		if _, err := EncodeUniformDense(memory.NewSpace(), "c", rng, rows, 1, 31250, column.DefaultEntrySize); err != nil {
			b.Fatal(err)
		}
	}
}
