package exec

import (
	"fmt"

	"cachepart/internal/column"
	"cachepart/internal/memory"
)

// PKLookupProject is the S/4HANA OLTP operator of Section VI-E in the
// plan shape a real engine uses for a multi-column primary-key
// predicate: probe the inverted index of the most selective key
// column, verify the remaining key predicates with point reads into
// the other key columns, then project the qualifying rows through the
// projection columns' dictionaries.
//
// Its hot working set — the inverted index's probed lines, the key
// columns' touched code lines and above all the projected columns'
// dictionaries — is what a concurrent scan evicts in Figures 1 and 12.
type PKLookupProject struct {
	Index        *column.InvertedIndex // most selective key column
	IndexKey     int64
	ResidualCols []*column.Column // remaining key columns
	ResidualKeys []int64
	Project      []*column.Column

	// OverheadCycles is a fixed per-execution cost covering the parts
	// of an end-to-end OLTP statement outside the storage operators:
	// parsing, plan-cache lookup, session handling, result transfer
	// (the paper measures end-to-end response times, Section III-D).
	OverheadCycles int64

	stage     int // 0 probe, 1 verify, 2 project
	cands     []uint32
	rows      []uint32
	verifyIdx int
	projRow   int
	projCol   int
	Projected int64
}

// NewPKLookupProject constructs the operator.
func NewPKLookupProject(index *column.InvertedIndex, indexKey int64,
	residualCols []*column.Column, residualKeys []int64,
	project []*column.Column) (*PKLookupProject, error) {
	if index == nil {
		return nil, fmt.Errorf("exec: nil index")
	}
	if len(residualCols) != len(residualKeys) {
		return nil, fmt.Errorf("exec: %d residual columns for %d keys",
			len(residualCols), len(residualKeys))
	}
	if len(project) == 0 {
		return nil, fmt.Errorf("exec: nothing to project")
	}
	return &PKLookupProject{
		Index:        index,
		IndexKey:     indexKey,
		ResidualCols: residualCols,
		ResidualKeys: residualKeys,
		Project:      project,
	}, nil
}

// Rows returns the matching rows once probing and verification are
// complete.
func (p *PKLookupProject) Rows() []uint32 { return p.rows }

// Step advances the operator; row-units are candidate verifications
// and column projections.
func (p *PKLookupProject) Step(ctx *Ctx, budget int) (int, bool) {
	processed := 0
	for processed < budget {
		switch p.stage {
		case 0:
			processed += p.probe(ctx)
		case 1:
			if p.verifyIdx >= len(p.cands) {
				p.stage = 2
				continue
			}
			p.verifyOne(ctx)
			processed++
		default:
			if p.projRow >= len(p.rows) {
				return processed, true
			}
			p.projectOne(ctx)
			processed++
		}
	}
	return processed, false
}

func (p *PKLookupProject) probe(ctx *Ctx) int {
	p.stage = 1
	if p.OverheadCycles > 0 {
		ctx.Compute(p.OverheadCycles, uint64(p.OverheadCycles)/2)
	}
	dict := p.Index.Column().Dict
	code, ok := dict.CodeOf(p.IndexKey)
	if dict.Len() > 0 {
		lookup := code
		if !ok {
			lookup = 0
		}
		ctx.Read(dict.Addr(lookup))
	}
	ctx.Compute(LookupCyclesPerRow, LookupInstrsPerRow)
	if !ok {
		p.cands = nil
		return 1
	}
	ctx.Read(p.Index.HeaderAddr(code))
	postings := p.Index.PostingsOf(code)
	for k := 0; k < len(postings); k += 16 {
		ctx.Read(p.Index.PostingAddr(code, k))
	}
	ctx.Compute(int64(len(postings)/8+1), uint64(len(postings)/4+2))
	// The index is never written after it is built, so the candidates
	// can alias its postings.
	p.cands = postings
	p.rows = make([]uint32, 0, len(postings)) // every candidate may match
	if len(postings) > 0 {
		return len(postings)
	}
	return 1
}

// verifyOne checks the residual key predicates for one candidate row
// with point reads into the key columns.
func (p *PKLookupProject) verifyOne(ctx *Ctx) {
	row := int(p.cands[p.verifyIdx])
	p.verifyIdx++
	match := true
	for i, col := range p.ResidualCols {
		ctx.Read(col.Codes.Addr(row))
		if col.Value(row) != p.ResidualKeys[i] {
			match = false
			break // short-circuit like a real residual filter
		}
	}
	ctx.Compute(LookupCyclesPerRow, LookupInstrsPerRow)
	if match {
		p.rows = append(p.rows, uint32(row))
	}
}

// projectOne materialises one (row, column) value through the
// dictionary; wide NVARCHAR-like entries span several lines.
func (p *PKLookupProject) projectOne(ctx *Ctx) {
	row := int(p.rows[p.projRow])
	col := p.Project[p.projCol]
	ctx.Read(col.Codes.Addr(row))
	code := col.Codes.Get(row)
	base := uint64(code) * col.Dict.EntrySize()
	for off := uint64(0); off < col.Dict.EntrySize(); off += memory.LineSize {
		ctx.Read(col.Dict.Region().Addr(base + off))
	}
	_ = col.Dict.Value(code)
	ctx.Compute(LookupCyclesPerRow, LookupInstrsPerRow)
	p.Projected++
	p.projCol++
	if p.projCol >= len(p.Project) {
		p.projCol = 0
		p.projRow++
	}
}
