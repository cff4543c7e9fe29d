// Package s4 models the S/4HANA workload of Sections VI-A and VI-E:
// the ACDOCA "Universal Journal Entry Line Items" table — a wide table
// whose NVARCHAR/DECIMAL columns carry large dictionaries — and the
// customer system's most frequent OLTP query, which probes the
// primary-key columns' inverted indexes and projects the selected rows
// through the dictionaries of 13 (or 6) columns.
//
// The real table has 336 attributes and 151 million rows; the model
// materialises the columns the query touches (five key columns, 13
// big-dictionary and 6 smaller-dictionary projection columns) at a
// sampled row count, with dictionary sizes scaled like the machine's
// caches. What Figures 1 and 12 need preserved is the ratio between
// the projection columns' aggregate dictionary footprint and the LLC.
package s4

import (
	"fmt"
	"math/rand"

	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
	"cachepart/internal/workload"
)

// Spec configures the ACDOCA model.
type Spec struct {
	// Rows is the sampled row count.
	Rows int
	// Scale divides the nominal dictionary sizes, matching the
	// machine scale.
	Scale int
	// RowsPerDocument is the average number of journal line items per
	// document, which sets the OLTP query's result size.
	RowsPerDocument int
}

// bigDictMiB returns the nominal dictionary sizes of the 13 biggest
// NVARCHAR columns (Figure 12a's projection set), ~36 MiB in total —
// an OLTP working set comparable to the 55 MiB LLC.
func bigDictMiB() []float64 { return []float64{8, 6, 5, 4, 3, 2.5, 2, 1.5, 1.2, 1, 0.8, 0.6, 0.4} }

// smallDictMiB returns the nominal sizes for the 6 smaller-dictionary
// columns of Figure 12b, ~8 MiB in total.
func smallDictMiB() []float64 { return []float64{2, 1.5, 1.25, 1, 0.75, 0.5} }

// nvarcharEntry is the simulated bytes per dictionary entry of an
// NVARCHAR(…) column.
const nvarcharEntry = 64

// Table is the generated ACDOCA model.
type Table struct {
	Spec Spec

	// DocKey is the high-cardinality key column (document number);
	// the OLTP query's index probe runs against it.
	DocKey *column.Column
	// Residual are the four remaining primary-key columns (client,
	// ledger, company code, fiscal year); their values are functions
	// of the document so residual verification matches.
	Residual []*column.Column
	// Index is the inverted index over DocKey.
	Index *column.InvertedIndex
	// Big and Small are the projection column sets.
	Big   []*column.Column
	Small []*column.Column

	docs int64
}

// residualCards returns the cardinalities of the residual key columns.
func residualCards() [4]int64 { return [4]int64{4, 8, 16, 8} }

// residualOf derives the residual key values of a document. Mixing
// with distinct multipliers keeps the columns decorrelated.
func residualOf(doc int64) [4]int64 {
	var out [4]int64
	h := uint64(doc) * 0x9e3779b97f4a7c15
	for i, card := range residualCards() {
		out[i] = 1 + int64(h%uint64(card))
		h = h>>8 ^ h*0x100000001b3
	}
	return out
}

// Load generates the table.
func Load(space *memory.Space, rng *workload.Rand, spec Spec) (*Table, error) {
	if spec.Rows <= 0 {
		return nil, fmt.Errorf("s4: rows %d", spec.Rows)
	}
	if spec.Scale <= 0 {
		spec.Scale = 1
	}
	if spec.RowsPerDocument <= 0 {
		spec.RowsPerDocument = 24
	}
	t := &Table{Spec: spec}
	t.docs = int64(spec.Rows / spec.RowsPerDocument)
	if t.docs < 1 {
		t.docs = 1
	}

	// Assign every row a document (document d has code d-1), then
	// derive the residual keys, once per document, so that all rows of
	// one document agree on them.
	var err error
	t.DocKey, err = workload.EncodeUniformDense(space, "acdoca.belnr", rng, spec.Rows, 1, t.docs, column.DefaultEntrySize)
	if err != nil {
		return nil, err
	}
	residual := make([][4]int64, t.docs)
	for d := range residual {
		residual[d] = residualOf(int64(d) + 1)
	}
	names := []string{"acdoca.rclnt", "acdoca.rldnr", "acdoca.rbukrs", "acdoca.gjahr"}
	for k, card := range residualCards() {
		// The dictionary is dense from 1, so value v has code v-1.
		dict, err := column.NewDenseDictionary(space, names[k], 1, card, column.DefaultEntrySize)
		if err != nil {
			return nil, err
		}
		codes, err := column.NewPackedVector(space, names[k], spec.Rows, dict.CodeBits())
		if err != nil {
			return nil, err
		}
		t.Residual = append(t.Residual, &column.Column{Name: names[k], Dict: dict, Codes: codes})
	}
	// One pass over the document codes packs all four columns.
	var runs [4][256]uint32
	for from := 0; from < spec.Rows; from += 256 {
		n := min(256, spec.Rows-from)
		for j := range n {
			keys := &residual[t.DocKey.Codes.Get(from+j)]
			for k := range runs {
				runs[k][j] = uint32(keys[k] - 1)
			}
		}
		for k, c := range t.Residual {
			c.Codes.PackRun(from, runs[k][:n])
		}
	}
	t.Index, err = column.BuildInvertedIndex(space, t.DocKey)
	if err != nil {
		return nil, err
	}

	// The 13 big and 6 small projection columns are one job, so their
	// draws split across two cores.
	var specs []workload.UniformSpec
	for _, set := range []struct {
		prefix string
		mib    []float64
	}{{"acdoca.big", bigDictMiB()}, {"acdoca.small", smallDictMiB()}} {
		for i, mib := range set.mib {
			distinct := max(int64(mib*1024*1024/nvarcharEntry)/int64(spec.Scale), 2)
			specs = append(specs, workload.UniformSpec{Name: fmt.Sprintf("%s%d", set.prefix, i), Rows: spec.Rows, Lo: 1, Hi: distinct, EntrySize: nvarcharEntry})
		}
	}
	cols, err := workload.EncodeUniformColumns(space, rng, specs)
	if err != nil {
		return nil, err
	}
	nBig := len(bigDictMiB())
	t.Big, t.Small = cols[:nBig:nBig], cols[nBig:]
	return t, nil
}

// Docs reports the number of distinct documents.
func (t *Table) Docs() int64 { return t.docs }

// OLTPQuery is the most frequent OLTP query of the customer system:
// look up one document by its full primary key and project its line
// items to a set of columns.
type OLTPQuery struct {
	label   string
	t       *Table
	project []*column.Column
}

// NewOLTPQuery builds the query projecting the given columns.
// Figure 12a projects the 13 big-dictionary columns
// (t.Big), Figure 12b the 6 smaller ones (t.Small).
func NewOLTPQuery(t *Table, project []*column.Column) (*OLTPQuery, error) {
	if len(project) == 0 {
		return nil, fmt.Errorf("s4: no projection columns")
	}
	return &OLTPQuery{
		label:   fmt.Sprintf("OLTP(%d cols)", len(project)),
		t:       t,
		project: project,
	}, nil
}

// Name identifies the query in results.
func (q *OLTPQuery) Name() string { return q.label }

// Project exposes the projection set.
func (q *OLTPQuery) Project() []*column.Column { return q.project }

// PrewarmRegions declares the OLTP query's cacheable steady-state
// working set: the projected columns' dictionaries — exactly what a
// co-running scan evicts. The inverted index is deliberately absent:
// like the paper's 151-million-row index it is far larger than the
// LLC, so its probes miss regardless of partitioning.
func (q *OLTPQuery) PrewarmRegions(cores int) []memory.Region {
	regions := make([]memory.Region, 0, len(q.project))
	for _, c := range q.project {
		regions = append(regions, c.Dict.Region())
	}
	return regions
}

// StatementOverheadCycles is the fixed end-to-end cost of one OLTP
// statement outside the storage operators (parsing, plan cache,
// session, result transfer) — a few microseconds, as for a prepared
// single-row statement on the paper's system.
const StatementOverheadCycles = 10_000

// Plan builds one execution: a single-threaded primary-key lookup and
// projection. OLTP statements run in the engine's dedicated thread
// pool with access to the entire cache (Section V-C), hence the
// Sensitive identifier.
func (q *OLTPQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	doc := 1 + rng.Int63n(q.t.docs)
	keys := residualOf(doc)
	k, err := exec.NewPKLookupProject(q.t.Index, doc, q.t.Residual, keys[:], q.project)
	if err != nil {
		return nil, err
	}
	k.OverheadCycles = StatementOverheadCycles
	return []engine.Phase{{
		Name:      "pk-lookup-project",
		CUID:      core.Sensitive,
		Kernels:   []exec.Kernel{k},
		CountRows: true,
	}}, nil
}
