package exec

import (
	"sync"
	"testing"

	"cachepart/internal/memory"
)

// TestBitVectorConcurrent pins the atomic access contract on the join
// bit vector: builders Set concurrently while probers Test and
// PopCount. Every word access goes through sync/atomic, so this test
// must stay clean under -race.
func TestBitVectorConcurrent(t *testing.T) {
	const n = 4096
	space := memory.NewSpace()
	bv, err := NewBitVector(space, "bv", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); i < n; i += workers {
				bv.Set(i)
				if !bv.Test(i) {
					t.Errorf("bit %d not visible to its own setter", i)
					return
				}
				// Concurrent readers must see a consistent snapshot,
				// never a torn word: the count can trail the writers
				// but never exceed the domain.
				if c := bv.PopCount(); c > n {
					t.Errorf("PopCount %d exceeds domain %d", c, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := bv.PopCount(); got != n {
		t.Errorf("PopCount after full build = %d, want %d", got, n)
	}
	bv.Clear()
	if got := bv.PopCount(); got != 0 {
		t.Errorf("PopCount after Clear = %d, want 0", got)
	}
	bv.SetAll()
	if got := bv.PopCount(); got != n {
		t.Errorf("PopCount after SetAll = %d, want %d", got, n)
	}
	if bv.Test(0) != true || bv.Test(n-1) != true {
		t.Error("SetAll missed a boundary bit")
	}
}
