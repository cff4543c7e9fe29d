package exec

import (
	"fmt"
	"sync/atomic"

	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// BitVector is the compact primary-key representation of the paper's
// OLAP-optimised foreign-key join (Section II): bit i set means primary
// key lo+i qualifies. Its simulated footprint n/8 bytes is what decides
// the join's cache sensitivity (Figure 6).
type BitVector struct {
	words  []uint64
	n      uint64
	lo     int64
	region memory.Region
}

// NewBitVector allocates a vector covering the key domain [lo, lo+n).
func NewBitVector(space *memory.Space, name string, lo int64, n uint64) (*BitVector, error) {
	if n == 0 {
		return nil, fmt.Errorf("exec: empty bit vector")
	}
	bv := &BitVector{
		words: make([]uint64, (n+63)/64),
		n:     n,
		lo:    lo,
	}
	bv.region = space.Alloc(name, (n+7)/8)
	return bv, nil
}

// Len reports the key-domain size.
func (b *BitVector) Len() uint64 { return b.n }

// Bytes reports the simulated footprint.
func (b *BitVector) Bytes() uint64 { return b.region.Size }

// Region exposes the simulated allocation.
func (b *BitVector) Region() memory.Region { return b.region }

// Addr is the byte address holding the bit for a key.
func (b *BitVector) Addr(key int64) memory.Addr {
	return b.region.Addr(uint64(key-b.lo) / 8)
}

// Set marks a key present. The OR is atomic so concurrent callers may
// share the vector: bit-sets commute, so the final contents are
// independent of interleaving.
func (b *BitVector) Set(key int64) {
	i := uint64(key - b.lo)
	if i >= b.n {
		panic(fmt.Sprintf("exec: key %d outside bit vector domain", key))
	}
	atomic.OrUint64(&b.words[i/64], 1<<(i%64))
}

// Test reports whether a key is present. The load is atomic because a
// plain read of a word another goroutine is ORing bits into is a data
// race even though bit-sets commute.
func (b *BitVector) Test(key int64) bool {
	i := uint64(key - b.lo)
	if i >= b.n {
		return false
	}
	return atomic.LoadUint64(&b.words[i/64])&(1<<(i%64)) != 0
}

// Clear empties the vector.
func (b *BitVector) Clear() {
	for i := range b.words {
		atomic.StoreUint64(&b.words[i], 0)
	}
}

// SetAll marks every key in the domain present, used to pre-populate
// the vector when executions rebuild only a sample of it.
func (b *BitVector) SetAll() {
	for i := range b.words {
		atomic.StoreUint64(&b.words[i], ^uint64(0))
	}
	if tail := b.n % 64; tail != 0 {
		atomic.StoreUint64(&b.words[len(b.words)-1], 1<<tail-1)
	}
}

// PopCount reports the number of set bits, for verification.
func (b *BitVector) PopCount() uint64 {
	var n uint64
	for i := range b.words {
		for w := atomic.LoadUint64(&b.words[i]); w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// JoinBuild is the first phase of the foreign-key join: scan the
// primary-key column and set the key's bit. The scan side is
// sequential; the bit writes scatter over the vector when the table is
// not key-ordered.
type JoinBuild struct {
	KeyCol *column.Column
	From   int
	To     int
	BV     *BitVector

	cur      int
	lastLine uint64
	started  bool
}

// NewJoinBuild constructs the build phase over [from, to).
func NewJoinBuild(keys *column.Column, from, to int, bv *BitVector) (*JoinBuild, error) {
	if from < 0 || to > keys.Rows() || from > to {
		return nil, fmt.Errorf("exec: build range [%d,%d) out of %d rows", from, to, keys.Rows())
	}
	return &JoinBuild{KeyCol: keys, From: from, To: to, BV: bv, cur: from}, nil
}

// Step processes up to budget rows. Per row it reads the key line when
// the row enters a new one, then writes the key's bit and charges the
// row's compute cost.
func (j *JoinBuild) Step(ctx *Ctx, budget int) (int, bool) {
	codes := j.KeyCol.Codes
	region := codes.Region()
	processed := 0
	for processed < budget && j.cur < j.To {
		if l := codes.LineOfRow(j.cur); !j.started || l != j.lastLine {
			ctx.Read(region.Addr(l * memory.LineSize))
			j.lastLine = l
			j.started = true
		}
		key := j.KeyCol.Dict.Value(codes.Get(j.cur))
		ctx.Write(j.BV.Addr(key))
		ctx.Compute(JoinCyclesPerRow, JoinInstrsPerRow)
		j.BV.Set(key)
		j.cur++
		processed++
	}
	return processed, j.cur >= j.To
}

// JoinProbe is the second phase: scan the foreign-key column, test each
// key's bit (random access over the vector) and count matches.
type JoinProbe struct {
	FKCol *column.Column
	From  int
	To    int
	BV    *BitVector

	cur      int
	lastLine uint64
	started  bool
	Matches  int64
}

// NewJoinProbe constructs the probe phase over [from, to).
func NewJoinProbe(fks *column.Column, from, to int, bv *BitVector) (*JoinProbe, error) {
	if from < 0 || to > fks.Rows() || from > to {
		return nil, fmt.Errorf("exec: probe range [%d,%d) out of %d rows", from, to, fks.Rows())
	}
	return &JoinProbe{FKCol: fks, From: from, To: to, BV: bv, cur: from}, nil
}

// Step processes up to budget rows. As in the build phase, per row it
// reads the foreign-key line when the row enters a new one, then reads
// the key's bit and charges the row's compute cost.
func (j *JoinProbe) Step(ctx *Ctx, budget int) (int, bool) {
	codes := j.FKCol.Codes
	region := codes.Region()
	processed := 0
	for processed < budget && j.cur < j.To {
		if l := codes.LineOfRow(j.cur); !j.started || l != j.lastLine {
			ctx.Read(region.Addr(l * memory.LineSize))
			j.lastLine = l
			j.started = true
		}
		key := j.FKCol.Dict.Value(codes.Get(j.cur))
		ctx.Read(j.BV.Addr(key))
		ctx.Compute(JoinCyclesPerRow, JoinInstrsPerRow)
		if j.BV.Test(key) {
			j.Matches++
		}
		j.cur++
		processed++
	}
	return processed, j.cur >= j.To
}
