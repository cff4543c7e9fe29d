package column

import (
	"fmt"

	"cachepart/internal/memory"
)

// Column is a dictionary-encoded column: an ordered dictionary plus a
// bit-packed code vector.
type Column struct {
	Name  string
	Dict  *Dictionary
	Codes *PackedVector
}

// EncodeDense builds a column over the contiguous domain [lo, hi]
// without materialising the dictionary values; every value must fall
// in the domain. This matches the paper's generated data (uniform
// integers 1..N).
func EncodeDense(space *memory.Space, name string, values []int64, lo, hi int64, entrySize uint64) (*Column, error) {
	dict, err := NewDenseDictionary(space, name, lo, hi, entrySize)
	if err != nil {
		return nil, err
	}
	codes, err := NewPackedVector(space, name, len(values), dict.CodeBits())
	if err != nil {
		return nil, err
	}
	var run [256]uint32
	for from := 0; from < len(values); from += len(run) {
		r := run[:min(len(run), len(values)-from)]
		for j, v := range values[from : from+len(r)] {
			c, ok := dict.CodeOf(v)
			if !ok {
				return nil, fmt.Errorf("column: value %d outside dictionary of column %q", v, name)
			}
			r[j] = c
		}
		codes.PackRun(from, r)
	}
	return &Column{Name: name, Dict: dict, Codes: codes}, nil
}

// Rows reports the row count.
func (c *Column) Rows() int { return c.Codes.Len() }

// Value decodes row i through the dictionary.
func (c *Column) Value(i int) int64 { return c.Dict.Value(c.Codes.Get(i)) }

// Footprint reports the simulated bytes of codes plus dictionary.
func (c *Column) Footprint() uint64 { return c.Codes.Bytes() + c.Dict.Bytes() }

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	columns []*Column
	byName  map[string]*Column
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{Name: name, byName: make(map[string]*Column)}
}

// AddColumn attaches a column; all columns must have the same length.
func (t *Table) AddColumn(c *Column) error {
	if _, ok := t.byName[c.Name]; ok {
		return fmt.Errorf("column: table %q already has column %q", t.Name, c.Name)
	}
	if len(t.columns) > 0 && c.Rows() != t.Rows() {
		return fmt.Errorf("column: column %q has %d rows, table %q has %d",
			c.Name, c.Rows(), t.Name, t.Rows())
	}
	t.columns = append(t.columns, c)
	t.byName[c.Name] = c
	return nil
}

// Column fetches a column by name.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("column: table %q has no column %q", t.Name, name)
	}
	return c, nil
}

// MustColumn is Column for static query plans where absence is a bug.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Rows reports the table's row count (0 when empty).
func (t *Table) Rows() int {
	if len(t.columns) == 0 {
		return 0
	}
	return t.columns[0].Rows()
}

// Footprint reports the simulated size of all columns.
func (t *Table) Footprint() uint64 {
	var total uint64
	for _, c := range t.columns {
		total += c.Footprint()
	}
	return total
}
