// Package tpch builds a scaled TPC-H SF 100 profile — the eight-table
// schema with the spec's column cardinalities — and expresses the 22
// queries as operator pipelines over the engine (scans, bit-vector
// foreign-key joins, grouped aggregations). Figure 11 co-runs each
// query with the paper's polluting column scan.
//
// The pipelines are cache-footprint-faithful approximations, not full
// SQL implementations: each query touches the tables, key domains,
// dictionary-heavy value columns, group counts and selectivities of
// its TPC-H counterpart, which is what decides its sensitivity to
// cache pollution (Section VI-D: queries 1, 7, 8 and 9 improve because
// they aggregate through large dictionaries such as L_EXTENDEDPRICE's
// ~29 MiB one).
package tpch

import (
	"fmt"

	"cachepart/internal/column"
	"cachepart/internal/memory"
	"cachepart/internal/workload"
)

// Spec configures generation.
type Spec struct {
	// Scale divides the nominal SF 100 cardinalities, matching the
	// machine scale.
	Scale int
	// LineitemRows is the sampled lineitem row count; the other
	// tables keep the spec's relative sizes.
	LineitemRows int
}

// Nominal SF 100 cardinalities.
const (
	nomOrders    = 150_000_000
	nomCustomers = 15_000_000
	nomParts     = 20_000_000
	nomSuppliers = 1_000_000
	// nomExtendedPrice matches the paper's ~29 MiB dictionary at 4 B
	// per entry.
	nomExtendedPrice = 7_600_000
	nomShipdate      = 2_526
	nomOrderdate     = 2_406
	nomTotalPrice    = 10_000_000
	nomAcctbal       = 1_000_000
)

// DB holds the generated tables.
type DB struct {
	Spec     Spec
	Lineitem *column.Table
	Orders   *column.Table
	Customer *column.Table
	Part     *column.Table
	Supplier *column.Table
}

// scaleN divides a nominal cardinality, never below 1.
func (s Spec) scaleN(n int64) int64 {
	v := n / int64(s.Scale)
	if v < 1 {
		return 1
	}
	return v
}

// Load generates the profile database.
func Load(space *memory.Space, rng *workload.Rand, spec Spec) (*DB, error) {
	if spec.Scale <= 0 {
		spec.Scale = 1
	}
	if spec.LineitemRows <= 0 {
		return nil, fmt.Errorf("tpch: lineitem rows %d", spec.LineitemRows)
	}
	db := &DB{Spec: spec}

	liRows := spec.LineitemRows
	ordRows := liRows / 4
	custRows := maxInt(liRows/40, 1024)
	partRows := maxInt(liRows/30, 1024)
	suppRows := maxInt(liRows/600, 256)

	var err error
	db.Lineitem, err = buildTable(space, rng, "lineitem", liRows, []colSpec{
		{name: "l_orderkey", distinct: spec.scaleN(nomOrders), clustered: true},
		{name: "l_partkey", distinct: spec.scaleN(nomParts)},
		{name: "l_suppkey", distinct: spec.scaleN(nomSuppliers)},
		{name: "l_extendedprice", distinct: spec.scaleN(nomExtendedPrice)},
		{name: "l_quantity", distinct: 50},
		{name: "l_discount", distinct: 11},
		{name: "l_tax", distinct: 9},
		{name: "l_shipdate", distinct: nomShipdate},
		{name: "l_shipmode", distinct: 7},
		{name: "l_returnflag", distinct: 3},
		// Derived grouping columns for the pipelines.
		{name: "l_rfls", distinct: 6},     // returnflag × linestatus (Q1)
		{name: "l_natpair", distinct: 50}, // supplier/customer nation pairs (Q7, Q9)
	})
	if err != nil {
		return nil, err
	}
	db.Orders, err = buildTable(space, rng, "orders", ordRows, []colSpec{
		{name: "o_orderkey", distinct: spec.scaleN(nomOrders), clustered: true},
		{name: "o_custkey", distinct: spec.scaleN(nomCustomers)},
		{name: "o_orderdate", distinct: nomOrderdate},
		{name: "o_orderpriority", distinct: 5},
		{name: "o_totalprice", distinct: spec.scaleN(nomTotalPrice)},
		{name: "o_year", distinct: 7},
	})
	if err != nil {
		return nil, err
	}
	db.Customer, err = buildTable(space, rng, "customer", custRows, []colSpec{
		{name: "c_custkey", distinct: spec.scaleN(nomCustomers), clustered: true},
		{name: "c_mktsegment", distinct: 5},
		{name: "c_nationkey", distinct: 25},
		{name: "c_acctbal", distinct: spec.scaleN(nomAcctbal)},
	})
	if err != nil {
		return nil, err
	}
	db.Part, err = buildTable(space, rng, "part", partRows, []colSpec{
		{name: "p_partkey", distinct: spec.scaleN(nomParts), clustered: true},
		{name: "p_brand", distinct: 25},
		{name: "p_type", distinct: 150},
		{name: "p_size", distinct: 50},
	})
	if err != nil {
		return nil, err
	}
	db.Supplier, err = buildTable(space, rng, "supplier", suppRows, []colSpec{
		{name: "s_suppkey", distinct: spec.scaleN(nomSuppliers), clustered: true},
		{name: "s_nationkey", distinct: 25},
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

type colSpec struct {
	name     string
	distinct int64
	// clustered generates ascending values covering the domain, the
	// physical order of primary keys and of l_orderkey in dbgen data.
	// Clustered keys make bit-vector join traffic sequential, which is
	// why order-key joins tolerate cache pollution while random
	// dictionary traffic does not.
	clustered bool
}

func buildTable(space *memory.Space, rng *workload.Rand, name string, rows int, cols []colSpec) (*column.Table, error) {
	t := column.NewTable(name)
	for _, cs := range cols {
		var c *column.Column
		var err error
		if cs.clustered {
			c, err = encodeClustered(space, name+"."+cs.name, rows, cs.distinct)
		} else {
			c, err = workload.EncodeUniformDense(space, name+"."+cs.name, rng, rows, 1, cs.distinct, column.DefaultEntrySize)
		}
		if err != nil {
			return nil, fmt.Errorf("tpch: column %s.%s: %w", name, cs.name, err)
		}
		c.Name = cs.name // region names keep the table prefix; lookups use the bare name
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// encodeClustered builds a dense-dictionary column whose values ascend
// across the domain [1, distinct] in row order.
func encodeClustered(space *memory.Space, name string, rows int, distinct int64) (*column.Column, error) {
	dict, err := column.NewDenseDictionary(space, name, 1, distinct, column.DefaultEntrySize)
	if err != nil {
		return nil, err
	}
	codes, err := column.NewPackedVector(space, name, rows, dict.CodeBits())
	if err != nil {
		return nil, err
	}
	var run [256]uint32
	for from := 0; from < rows; from += len(run) {
		r := run[:min(len(run), rows-from)]
		for j := range r {
			r[j] = uint32(int64(from+j) * distinct / int64(rows))
		}
		codes.PackRun(from, r)
	}
	return &column.Column{Name: name, Dict: dict, Codes: codes}, nil
}

// Table resolves a table by short name.
func (db *DB) Table(name string) (*column.Table, error) {
	switch name {
	case "lineitem":
		return db.Lineitem, nil
	case "orders":
		return db.Orders, nil
	case "customer":
		return db.Customer, nil
	case "part":
		return db.Part, nil
	case "supplier":
		return db.Supplier, nil
	default:
		return nil, fmt.Errorf("tpch: no table %q", name)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
