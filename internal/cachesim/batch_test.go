package cachesim

import (
	"math/rand"
	"testing"

	"cachepart/internal/memory"
)

func batchTestConfig() Config {
	cfg := DefaultConfig().Scaled(64)
	cfg.Cores = 4
	return cfg
}

// batchPattern builds a mixed sequential/random access pattern with
// per-element compute costs, the shape scan-style kernels submit.
func batchPattern(rng *rand.Rand, n int) []BatchOp {
	base := memory.Addr(memory.PageSize)
	ops := make([]BatchOp, n)
	for i := range ops {
		var a memory.Addr
		if i%4 != 3 {
			a = base + memory.Addr(i)*memory.LineSize
		} else {
			a = base + memory.Addr(rng.Intn(1<<14))*memory.LineSize
		}
		ops[i] = BatchOp{
			Addr:   a,
			Write:  rng.Intn(8) == 0,
			Cycles: int64(rng.Intn(3)),
			Instrs: uint64(rng.Intn(4)),
		}
	}
	return ops
}

// TestAccessBatchBitIdentical: AccessBatch must be exactly equivalent
// to the unbatched Access/Compute loop.
func TestAccessBatchBitIdentical(t *testing.T) {
	cfg := batchTestConfig()
	ma, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		ops := batchPattern(rand.New(rand.NewSource(seed)), 4096)
		for core := 0; core < cfg.Cores; core++ {
			for i := range ops {
				op := &ops[i]
				ma.Access(core, op.Addr, op.Write)
				if op.Cycles != 0 || op.Instrs != 0 {
					ma.Compute(core, op.Cycles, op.Instrs)
				}
			}
			mb.AccessBatch(core, ops)
		}
		for core := 0; core < cfg.Cores; core++ {
			if ma.Stats(core) != mb.Stats(core) {
				t.Fatalf("seed %d core %d stats diverge:\n loop  %+v\n batch %+v",
					seed, core, ma.Stats(core), mb.Stats(core))
			}
			if ma.Now(core) != mb.Now(core) {
				t.Fatalf("seed %d core %d clocks diverge: %d vs %d",
					seed, core, ma.Now(core), mb.Now(core))
			}
		}
		if ma.dramFree != mb.dramFree {
			t.Fatalf("seed %d DRAM queues diverge: %d vs %d", seed, ma.dramFree, mb.dramFree)
		}
	}
}
