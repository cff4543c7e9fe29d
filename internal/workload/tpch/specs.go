package tpch

// QuerySpec is one TPC-H query's pipeline.
type QuerySpec struct {
	Name string
	// Comment summarises what the pipeline keeps from the SQL query.
	Comment string
	Ops     []Op
}

// Queries is the number of TPC-H queries, numbered 1..Queries.
const Queries = len(specs)

// specs expresses the 22 TPC-H queries as footprint-faithful operator
// pipelines. The parameters that matter for Figure 11 are preserved:
// which tables are scanned, the key cardinalities of the joins (bit
// vector sizes), the group counts of the aggregations (hash table
// sizes), the dictionary-heavy value columns (above all
// l_extendedprice, whose dictionary is ~29 MiB at SF 100), and the
// predicate selectivities that gate dictionary traffic.
var specs = [...]QuerySpec{
	{
		Name:    "Q1",
		Comment: "pricing summary: full-lineitem aggregation into 6 groups decoding 4 value columns incl. extendedprice",
		Ops: []Op{
			AggOp{Table: "lineitem", GroupCol: "l_rfls",
				ValueCols:   []string{"l_extendedprice", "l_quantity", "l_discount", "l_tax"},
				Selectivity: 0.98},
		},
	},
	{
		Name:    "Q2",
		Comment: "minimum-cost supplier: part scan, part->lineitem join, per-supplier aggregation",
		Ops: []Op{
			ScanOp{Table: "part", Column: "p_type"},
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			AggOp{Table: "lineitem", GroupCol: "l_suppkey", ValueCols: []string{"l_tax"}, Selectivity: 0.05},
		},
	},
	{
		Name:    "Q3",
		Comment: "shipping priority: segment scan, customer->orders->lineitem joins, per-order aggregation",
		Ops: []Op{
			ScanOp{Table: "customer", Column: "c_mktsegment"},
			JoinOp{BuildTable: "customer", BuildCol: "c_custkey", ProbeTable: "orders", ProbeCol: "o_custkey"},
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "lineitem", GroupCol: "l_orderkey",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.3},
		},
	},
	{
		Name:    "Q4",
		Comment: "order priority check: lineitem semi-join into orders, 5-group count",
		Ops: []Op{
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "orders", GroupCol: "o_orderpriority", Selectivity: 0.25},
		},
	},
	{
		Name:    "Q5",
		Comment: "local supplier volume: three joins, 25-group aggregation over revenue",
		Ops: []Op{
			JoinOp{BuildTable: "customer", BuildCol: "c_custkey", ProbeTable: "orders", ProbeCol: "o_custkey"},
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			JoinOp{BuildTable: "supplier", BuildCol: "s_suppkey", ProbeTable: "lineitem", ProbeCol: "l_suppkey"},
			AggOp{Table: "lineitem", GroupCol: "l_natpair",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.04},
		},
	},
	{
		Name:    "Q6",
		Comment: "forecasting revenue: pure scan with a ~2% filter, single-group sum",
		Ops: []Op{
			ScanOp{Table: "lineitem", Column: "l_shipdate"},
			AggOp{Table: "lineitem", GroupCol: "l_returnflag",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.02},
		},
	},
	{
		Name:    "Q7",
		Comment: "volume shipping: supplier/customer/orders joins, 50 nation-pair groups decoding extendedprice",
		Ops: []Op{
			JoinOp{BuildTable: "supplier", BuildCol: "s_suppkey", ProbeTable: "lineitem", ProbeCol: "l_suppkey"},
			JoinOp{BuildTable: "customer", BuildCol: "c_custkey", ProbeTable: "orders", ProbeCol: "o_custkey"},
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "lineitem", GroupCol: "l_natpair",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.35},
		},
	},
	{
		Name:    "Q8",
		Comment: "national market share: part-filtered joins, per-year aggregation over extendedprice",
		Ops: []Op{
			ScanOp{Table: "part", Column: "p_type"},
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "lineitem", GroupCol: "l_natpair",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.30},
		},
	},
	{
		Name:    "Q9",
		Comment: "product type profit: part/supplier joins, nation-year groups decoding extendedprice and cost",
		Ops: []Op{
			ScanOp{Table: "part", Column: "p_type"},
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			JoinOp{BuildTable: "supplier", BuildCol: "s_suppkey", ProbeTable: "lineitem", ProbeCol: "l_suppkey"},
			AggOp{Table: "lineitem", GroupCol: "l_natpair",
				ValueCols: []string{"l_extendedprice", "l_discount", "l_tax"}, Selectivity: 0.40},
		},
	},
	{
		Name:    "Q10",
		Comment: "returned items: returnflag filter, joins, per-customer (large) grouping",
		Ops: []Op{
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "orders", GroupCol: "o_custkey",
				ValueCols: []string{"o_totalprice"}, Selectivity: 0.25},
		},
	},
	{
		Name:    "Q11",
		Comment: "important stock: supplier join, per-part (very large) grouping",
		Ops: []Op{
			JoinOp{BuildTable: "supplier", BuildCol: "s_suppkey", ProbeTable: "lineitem", ProbeCol: "l_suppkey"},
			AggOp{Table: "lineitem", GroupCol: "l_partkey", ValueCols: []string{"l_tax"}, Selectivity: 0.04},
		},
	},
	{
		Name:    "Q12",
		Comment: "shipping modes: orders join, 7-group count",
		Ops: []Op{
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "lineitem", GroupCol: "l_shipmode", Selectivity: 0.01},
		},
	},
	{
		Name:    "Q13",
		Comment: "customer distribution: customer->orders join, per-customer grouping",
		Ops: []Op{
			JoinOp{BuildTable: "customer", BuildCol: "c_custkey", ProbeTable: "orders", ProbeCol: "o_custkey"},
			AggOp{Table: "orders", GroupCol: "o_custkey"},
		},
	},
	{
		Name:    "Q14",
		Comment: "promotion effect: part join, single-group revenue sum with ~1% filter",
		Ops: []Op{
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			AggOp{Table: "lineitem", GroupCol: "l_returnflag",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.01},
		},
	},
	{
		Name:    "Q15",
		Comment: "top supplier: per-supplier revenue aggregation, supplier join",
		Ops: []Op{
			AggOp{Table: "lineitem", GroupCol: "l_suppkey",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.04},
			JoinOp{BuildTable: "supplier", BuildCol: "s_suppkey", ProbeTable: "lineitem", ProbeCol: "l_suppkey"},
		},
	},
	{
		Name:    "Q16",
		Comment: "parts/supplier relationship: part scan, join, brand/type grouping",
		Ops: []Op{
			ScanOp{Table: "part", Column: "p_brand"},
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			AggOp{Table: "part", GroupCol: "p_type"},
		},
	},
	{
		Name:    "Q17",
		Comment: "small-quantity revenue: part join with tight filter, per-part grouping",
		Ops: []Op{
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			AggOp{Table: "lineitem", GroupCol: "l_partkey",
				ValueCols: []string{"l_quantity"}, Selectivity: 0.001},
		},
	},
	{
		Name:    "Q18",
		Comment: "large volume customers: per-order (very large) grouping over quantity, orders join",
		Ops: []Op{
			AggOp{Table: "lineitem", GroupCol: "l_orderkey", ValueCols: []string{"l_quantity"}},
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "orders", GroupCol: "o_custkey", ValueCols: []string{"o_totalprice"}, Selectivity: 0.01},
		},
	},
	{
		Name:    "Q19",
		Comment: "discounted revenue: part join, single-group sum with ~0.2% filter",
		Ops: []Op{
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			AggOp{Table: "lineitem", GroupCol: "l_returnflag",
				ValueCols: []string{"l_extendedprice", "l_discount"}, Selectivity: 0.002},
		},
	},
	{
		Name:    "Q20",
		Comment: "promotion parts for nation: part scan, joins, per-supplier quantity aggregation",
		Ops: []Op{
			ScanOp{Table: "part", Column: "p_brand"},
			JoinOp{BuildTable: "part", BuildCol: "p_partkey", ProbeTable: "lineitem", ProbeCol: "l_partkey"},
			AggOp{Table: "lineitem", GroupCol: "l_suppkey",
				ValueCols: []string{"l_quantity"}, Selectivity: 0.01},
			JoinOp{BuildTable: "supplier", BuildCol: "s_suppkey", ProbeTable: "lineitem", ProbeCol: "l_suppkey"},
		},
	},
	{
		Name:    "Q21",
		Comment: "waiting suppliers: supplier and orders joins, per-supplier count",
		Ops: []Op{
			JoinOp{BuildTable: "supplier", BuildCol: "s_suppkey", ProbeTable: "lineitem", ProbeCol: "l_suppkey"},
			JoinOp{BuildTable: "orders", BuildCol: "o_orderkey", ProbeTable: "lineitem", ProbeCol: "l_orderkey"},
			AggOp{Table: "lineitem", GroupCol: "l_suppkey", Selectivity: 0.04},
		},
	},
	{
		Name:    "Q22",
		Comment: "global sales opportunity: customer scan, per-nation aggregation over account balances",
		Ops: []Op{
			ScanOp{Table: "customer", Column: "c_acctbal"},
			AggOp{Table: "customer", GroupCol: "c_nationkey",
				ValueCols: []string{"c_acctbal"}, Selectivity: 0.2},
		},
	},
}
