package exec

import (
	"fmt"

	"cachepart/internal/cachesim"
	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// ColumnScan is the paper's Query 1 operator: a sequential scan over a
// bit-packed, dictionary-encoded column evaluating a range predicate
// directly on the compressed codes (order-preserving encoding makes
// that exact). It touches each cache line of the code vector once and
// never accesses the dictionary, which is why it is cache-insensitive
// but bandwidth-hungry.
//
// The kernel counts codes c with LoCode <= c < HiCode over rows
// [From, To).
type ColumnScan struct {
	Col    *column.Column
	From   int
	To     int
	LoCode uint32
	HiCode uint32

	cur   int
	Count int64

	ops []cachesim.BatchOp // scratch for the batched access fast path
}

// NewColumnScan builds a scan counting rows with value > bound, the
// paper's `WHERE A.X > ?` predicate, over the row range [from, to).
func NewColumnScan(col *column.Column, from, to int, bound int64) (*ColumnScan, error) {
	if from < 0 || to > col.Rows() || from > to {
		return nil, fmt.Errorf("exec: scan range [%d,%d) out of %d rows", from, to, col.Rows())
	}
	lo := col.Dict.LowerBound(bound + 1)
	return &ColumnScan{
		Col:    col,
		From:   from,
		To:     to,
		LoCode: lo,
		HiCode: uint32(col.Dict.Len()),
		cur:    from,
	}, nil
}

// firstRowOfLine returns the first row whose packed code starts in the
// given cache line of the code vector.
func firstRowOfLine(v *column.PackedVector, line uint64) int {
	startBit := line * memory.LineSize * 8
	bits := uint64(v.Bits())
	return int((startBit + bits - 1) / bits)
}

// Step processes up to budget rows, one cache line of codes at a time.
// The per-line [read, compute] pairs of a slice are submitted as one
// batch, preserving the exact access sequence while amortizing the
// per-reference simulator call overhead.
//
//perf:hot column-scan kernel inner loop
func (s *ColumnScan) Step(ctx *Ctx, budget int) (int, bool) {
	processed := 0
	codes := s.Col.Codes
	region := codes.Region()
	s.ops = s.ops[:0]
	for processed < budget && s.cur < s.To {
		line := codes.LineOfRow(s.cur)
		end := firstRowOfLine(codes, line+1)
		if end > s.To {
			end = s.To
		}
		if end <= s.cur {
			end = s.cur + 1 // codes wider than a line; defensive
		}
		s.ops = append(s.ops, cachesim.BatchOp{
			Addr:   region.Addr(line * memory.LineSize),
			Cycles: ScanCyclesPerLine,
			Instrs: ScanInstrsPerLine,
		})
		s.Count += codes.CountInRange(s.cur, end, s.LoCode, s.HiCode)
		processed += end - s.cur
		s.cur = end
	}
	ctx.ReadBatch(s.ops)
	return processed, s.cur >= s.To
}

// Reset rewinds the kernel for a fresh execution with a new predicate
// code range.
func (s *ColumnScan) Reset(loCode, hiCode uint32) {
	s.cur = s.From
	s.Count = 0
	s.LoCode, s.HiCode = loCode, hiCode
}
