package exec

import (
	"fmt"

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
//
// It runs as two halves. The timing half is Step: one simulated read
// plus the per-line compute cost for every cache line of codes, which
// is all the clock, the caches and the access stream ever see. The
// functional half is the count itself, a pure function of the immutable
// code vector that nothing reads before the kernel is done, so it runs
// once over the whole range on a goroutine of its own
// (PackedVector.StartCountInRange — the go statement lives in package
// column, which cannot name a Ctx, a Machine or a kernel) and the Step
// that completes the kernel collects it. The range and the
// predicate are read when the first Step starts the count; set them
// before it. A kernel runs once: a plan builds a new one per execution.
type ColumnScan struct {
	Col    *column.Column
	From   int
	To     int
	LoCode uint32
	HiCode uint32

	cur int

	// Count is the number of qualifying rows in [From, To). It is valid
	// once Step has returned done; before that it is 0.
	Count int64
	// pending carries the count from its helper goroutine; nil before
	// the first Step with rows to process and after the count has been
	// received. It holds one value, so a kernel the run abandons at its
	// horizon leaves a helper that finishes into the buffer, exits and
	// is collected with it.
	pending <-chan int64

	// Line cursor: lineEnd is the first row starting in the line after
	// cur's, lineEndBit where in that line its first bit lies, in
	// [0, code width). A line holds perLine rows and extraBits bits of
	// one more, so Step moves from one boundary to the next by
	// addition; the divisions are NewColumnScan's.
	lineEnd    int
	lineEndBit uint
	perLine    int
	extraBits  uint
}

// NewColumnScan builds a scan counting rows with value > bound, the
// paper's `WHERE A.X > ?` predicate, over the row range [from, to).
func NewColumnScan(col *column.Column, from, to int, bound int64) (*ColumnScan, error) {
	if from < 0 || to > col.Rows() || from > to {
		return nil, fmt.Errorf("exec: scan range [%d,%d) out of %d rows", from, to, col.Rows())
	}
	codes := col.Codes
	bits := codes.Bits()
	nextLine := codes.LineOfRow(from) + 1
	lineEnd := firstRowOfLine(codes, nextLine)
	return &ColumnScan{
		Col:        col,
		From:       from,
		To:         to,
		LoCode:     col.Dict.LowerBound(bound + 1),
		HiCode:     uint32(col.Dict.Len()),
		cur:        from,
		lineEnd:    lineEnd,
		lineEndBit: uint(uint64(lineEnd)*uint64(bits) - nextLine*lineBits),
		perLine:    int(lineBits / bits),
		extraBits:  lineBits % bits,
	}, nil
}

const lineBits = memory.LineSize * 8

// firstRowOfLine returns the first row whose packed code starts in the
// given cache line of the code vector.
func firstRowOfLine(v *column.PackedVector, line uint64) int {
	startBit := line * lineBits
	bits := uint64(v.Bits())
	return int((startBit + bits - 1) / bits)
}

// Step processes up to budget rows, one cache line of codes at a time:
// a read of the line, then its predicate-evaluation cost. The first
// slice starts the count beside the simulation and the last one waits
// for it.
func (s *ColumnScan) Step(ctx *Ctx, budget int) (int, bool) {
	if s.pending == nil && s.cur < s.To {
		s.pending = s.Col.Codes.StartCountInRange(s.From, s.To, s.LoCode, s.HiCode)
	}
	processed := 0
	codes := s.Col.Codes
	region := codes.Region()
	line := codes.LineOfRow(s.cur)
	for processed < budget && s.cur < s.To {
		end := s.lineEnd
		if end > s.To {
			end = s.To
		}
		ctx.Read(region.Addr(line * memory.LineSize))
		ctx.Compute(ScanCyclesPerLine, ScanInstrsPerLine)
		processed += end - s.cur
		s.cur = end
		// The next line's extra row starts in it when its first row
		// starts within its first extraBits bits.
		line++
		s.lineEnd += s.perLine
		if s.lineEndBit < s.extraBits {
			s.lineEnd++
			s.lineEndBit += codes.Bits()
		}
		s.lineEndBit -= s.extraBits
	}
	done := s.cur >= s.To
	if done && s.pending != nil {
		s.Count = <-s.pending
		s.pending = nil
	}
	return processed, done
}
