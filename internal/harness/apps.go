package harness

import (
	"fmt"

	"cachepart/internal/workload/s4"
	"cachepart/internal/workload/tpch"
)

// Fig11 reproduces Figure 11: each TPC-H query co-running with the
// polluting column scan (Query 1), with partitioning off and on (scan
// restricted to 10%, TPC-H query at 100%). Expected shape: queries 1,
// 7, 8, 9 gain the most; most others change little; nothing regresses.
func Fig11(p Params) ([]PairRow, error) {
	return fig11Queries(p, nil)
}

// Fig11Query runs a single TPC-H query number of Figure 11.
func Fig11Query(p Params, number int) (PairRow, error) {
	rows, err := fig11Queries(p, []int{number})
	if err != nil {
		return PairRow{}, err
	}
	return rows[0], nil
}

func fig11Queries(p Params, numbers []int) ([]PairRow, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	q1, err := NewQ1(sys)
	if err != nil {
		return nil, err
	}
	db, err := tpch.Load(sys.Space, sys.Rng, tpch.Spec{
		Scale:        p.Scale,
		LineitemRows: p.RowsAgg,
	})
	if err != nil {
		return nil, err
	}
	if numbers == nil {
		for n := 1; n <= tpch.Queries; n++ {
			numbers = append(numbers, n)
		}
	}
	a, b := sys.SplitCores()
	var rows []PairRow
	for _, n := range numbers {
		q, err := tpch.NewQuery(db, sys.Space, n)
		if err != nil {
			return nil, err
		}
		row, err := sys.runPairArms(q.Name(), q1, a, q, b, sys.partitionArms())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// loadS4 builds the ACDOCA model sized from the aggregation sampling
// parameter. The row count is kept high enough that the inverted
// index exceeds the scaled LLC: as with the paper's 151-million-row
// table, index probes are uncacheable and only the dictionaries are a
// protectable working set.
func loadS4(sys *System) (*s4.Table, error) {
	rows := sys.Params.RowsAgg
	if minRows := int(sys.LLCBytes()); rows*4 < 2*minRows {
		rows = minRows / 2 // index = 4 B/row ⇒ index ≈ 2× LLC
	}
	return s4.Load(sys.Space, sys.Rng, s4.Spec{
		Rows:  rows,
		Scale: sys.Params.Scale,
	})
}

// oltpCoreSplit gives the OLAP scan most of the machine and reserves a
// small dedicated pool for the OLTP query, mirroring the engine's
// dedicated OLTP thread pool (Section V-C).
func (s *System) oltpCoreSplit() (olap, oltp []int) {
	n := s.Machine.Cores()
	reserve := 2
	if n <= 4 {
		reserve = 1
	}
	all := s.AllCores()
	return all[:n-reserve], all[n-reserve:]
}

// Fig12 reproduces Figure 12: Query 1 (column scan) concurrent with
// the S/4HANA OLTP query, projecting the 13 biggest-dictionary columns
// (a) or 6 smaller ones (b). With partitioning the scan is restricted
// to 10% of the LLC. Its first row is also the teaser, Figure 1.
func Fig12(p Params) ([]PairRow, error) {
	return oltpCoRuns(p, []projection{
		{"13 big-dictionary columns", true, 13},
		{"6 smaller-dictionary columns", false, 6},
	})
}

// FigProjSweep reproduces the additional experiment of Section VI-E:
// the OLTP query's partitioning benefit as the number of projected
// (big-dictionary) columns grows from 2 to 13.
func FigProjSweep(p Params) ([]PairRow, error) {
	var projections []projection
	for _, k := range []int{2, 4, 6, 8, 10, 13} {
		projections = append(projections, projection{fmt.Sprintf("%d columns", k), true, k})
	}
	return oltpCoRuns(p, projections)
}

// projection is one OLTP co-run row: the OLTP query projects the
// first columns of the table's big- or smaller-dictionary set.
type projection struct {
	label   string
	big     bool
	columns int
}

// oltpCoRuns runs Query 1 on the OLAP cores beside the OLTP query on
// its dedicated pool, once per projection, shared and partitioned.
func oltpCoRuns(p Params, projections []projection) ([]PairRow, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	table, err := loadS4(sys)
	if err != nil {
		return nil, err
	}
	q1, err := NewQ1(sys)
	if err != nil {
		return nil, err
	}
	olap, dedicated := sys.oltpCoreSplit()
	var rows []PairRow
	for _, sel := range projections {
		project := table.Small
		if sel.big {
			project = table.Big
		}
		oltp, err := s4.NewOLTPQuery(table, project[:sel.columns])
		if err != nil {
			return nil, err
		}
		row, err := sys.runPairArms(sel.label, q1, olap, oltp, dedicated, sys.partitionArms())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
