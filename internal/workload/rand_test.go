package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randSeeds are the seeds the replica is checked at: zero, the data
// sets' own, a negative one and one past 32 bits (math/rand reduces
// seeds mod 2^31−1, so these reach distinct states).
var randSeeds = []int64{0, 1, 5, 42, -7, 1 << 40}

// The ops a script interleaves. Each applies one call to the replica
// and the same call to math/rand's own generator.
const (
	opUint64 = iota
	opInt63
	opInt63nPow2 // Int63n takes its mask path
	opInt63nOdd
	opInt63nHuge // 3·2^61: a quarter of raw draws are rejected
	opIntn
	opFloat64
	opShuffle
	opPerm
	opFill     // a column run: bounded.fill over the buffer
	opFillHuge // bounded.fill at 3·2^61, so its rejection loop runs
	opDraw     // DistinctInts' per-value draw
	opSkip     // bounded.skip, at 31250 or 3·2^61, as a column's second half starts
	opSeed
	numOps
)

// randOp applies op, with a small argument arg, to the replica r and
// to the oracle o and returns the raw draws it consumed, or an error
// naming the first output that differs.
func randOp(r *Rand, o *rand.Rand, op, arg int) (int, error) {
	eq := func(name string, got, want any) error {
		if got != want {
			return fmt.Errorf("%s = %v, math/rand %v", name, got, want)
		}
		return nil
	}
	switch op {
	case opUint64:
		return 1, eq("Uint64", r.Uint64(), o.Uint64())
	case opInt63:
		return 1, eq("Int63", r.Int63(), o.Int63())
	case opInt63nPow2:
		return 1, eq("Int63n(2^20)", r.Int63n(1<<20), o.Int63n(1<<20))
	case opInt63nOdd:
		return 1, eq("Int63n(21845)", r.Int63n(21845), o.Int63n(21845))
	case opInt63nHuge:
		return 1, eq("Int63n(3·2^61)", r.Int63n(3<<61), o.Int63n(3<<61))
	case opIntn:
		return 1, eq("Intn", r.Intn(1000+arg), o.Intn(1000+arg))
	case opFloat64:
		return 1, eq("Float64", r.Float64(), o.Float64())
	case opShuffle:
		a, b := make([]int, 2+arg), make([]int, 2+arg)
		for i := range a {
			a[i], b[i] = i, i
		}
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		o.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if !slices.Equal(a, b) {
			return len(a), fmt.Errorf("Shuffle(%d) = %v, math/rand %v", len(a), a, b)
		}
		return len(a), nil
	case opPerm:
		if a, b := r.Perm(1+arg), o.Perm(1+arg); !slices.Equal(a, b) {
			return len(a), fmt.Errorf("Perm(%d) = %v, math/rand %v", len(a), a, b)
		}
		return 1 + arg, nil
	case opFill, opFillHuge:
		n := int64(31250)
		if op == opFillHuge {
			n = 3 << 61
		}
		d := newBounded(n)
		codes := make([]uint32, 1+arg*arg)
		d.fill(r.src, codes)
		for i, c := range codes {
			// The codes keep the low 32 bits, so at 3·2^61 they are
			// compared truncated: what is checked is which raw draws
			// the loop took.
			if want := uint32(o.Int63n(n)); c != want {
				return i, fmt.Errorf("fill(%d) code %d of %d = %d, Int63n %d", n, i, len(codes), c, want)
			}
		}
		return len(codes), nil
	case opDraw:
		d := newBounded(1_000_000 + int64(arg))
		return 1, eq("draw", d.draw(r.src), o.Int63n(1_000_000+int64(arg)))
	case opSkip:
		n := int64(31250)
		if arg/4%2 == 1 {
			n = 3 << 61
		}
		d, k := newBounded(n), 1+arg*arg
		d.skip(r.src, k)
		for range k {
			o.Int63n(n)
		}
		return k, nil
	case opSeed:
		seed := int64(arg)*0x5851f42d4c957f2d - 7
		r.Seed(seed)
		o.Seed(seed)
		return 0, nil
	}
	panic(fmt.Sprintf("randOp: op %d", op))
}

// TestRandMatchesMathRand drives the replica and math/rand's generator
// through the same calls, over 3 M raw draws per seed: column runs and
// skips of 1 to 3970 codes, so refills fall at many offsets, between
// each scalar method, and a reseed every 400 k draws or so.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range randSeeds {
		r, o := NewRand(seed), rand.New(rand.NewSource(seed))
		draws, step, reseedAt := 0, 0, 400_000
		for draws < 3_000_000 {
			op, arg := step%numOps, step%64
			if op == opSeed {
				if draws < reseedAt {
					op = opFill
				} else {
					reseedAt = draws + 400_000
				}
			}
			n, err := randOp(r, o, op, arg)
			if err != nil {
				t.Fatalf("seed %d, step %d, after %d draws: %v", seed, step, draws, err)
			}
			draws += n
			step++
		}
		if r.Int63() != o.Int63() {
			t.Fatalf("seed %d: the generators diverged at the end", seed)
		}
	}
}

// FuzzRandMatchesMathRand runs a script of ops, one byte each: the low
// four bits pick the op, the high four its argument (a column run of
// up to 3601 codes).
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{opFill | 0xf0, opUint64, opInt63nHuge, opFill | 0x70})
	f.Add(int64(-7), []byte{opSeed | 0x30, opPerm | 0x50, opShuffle | 0x20, opFillHuge | 0xf0, opFloat64})
	f.Add(int64(1<<40), []byte{opDraw, opIntn | 0x10, opInt63nPow2, opInt63nOdd, opInt63})
	f.Add(int64(5), []byte{opSkip | 0xf0, opUint64, opSkip | 0x10, opFill | 0x30, opSkip | 0xb0, opInt63})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		r, o := NewRand(seed), rand.New(rand.NewSource(seed))
		for i, b := range script {
			if _, err := randOp(r, o, int(b&0xf)%numOps, int(b>>4)*4); err != nil {
				t.Fatalf("op %d (byte %#x): %v", i, b, err)
			}
		}
		if r.Int63() != o.Int63() {
			t.Fatal("the generators diverged at the end")
		}
	})
}
