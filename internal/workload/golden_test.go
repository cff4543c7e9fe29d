package workload_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"cachepart/internal/column"
	"cachepart/internal/memory"
	"cachepart/internal/workload"
	"cachepart/internal/workload/s4"
	"cachepart/internal/workload/tpch"
)

// setDigest folds a generated data set into one FNV-1a hash: every
// column's packed codes, dictionary bounds and entry size, each
// region's name, base address and size, and the rng's next draw after
// generation, so a generator that consumes one draw more or less moves
// the digest even when the data it wrote is the same.
type setDigest struct{ h hash.Hash64 }

func newSetDigest() *setDigest { return &setDigest{fnv.New64a()} }

func (d *setDigest) word(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *setDigest) region(r memory.Region) {
	d.h.Write([]byte(r.Name))
	d.word(uint64(r.Base), r.Size)
}

func (d *setDigest) column(c *column.Column) {
	d.h.Write([]byte(c.Name))
	n := c.Dict.Len()
	d.word(uint64(n), uint64(c.Dict.Value(0)), uint64(c.Dict.Value(uint32(n-1))), c.Dict.EntrySize())
	d.region(c.Dict.Region())
	d.region(c.Codes.Region())
	d.word(uint64(c.Codes.Bits()), uint64(c.Rows()))
	for i := range c.Rows() {
		d.word(uint64(c.Codes.Get(i)))
	}
}

func (d *setDigest) index(ix *column.InvertedIndex) {
	d.region(ix.Region())
	for code := range ix.Column().Dict.Len() {
		for _, row := range ix.PostingsOf(uint32(code)) {
			d.word(uint64(code), uint64(row))
		}
	}
}

// acdocaDigest loads ACDOCA at rows and digests its 24 columns and the
// index.
func acdocaDigest(t *testing.T, rows int) func(*memory.Space, *workload.Rand, *setDigest) error {
	return func(s *memory.Space, rng *workload.Rand, d *setDigest) error {
		tb, err := s4.Load(s, rng, s4.Spec{Rows: rows, Scale: 32})
		if err != nil {
			return err
		}
		cols := append([]*column.Column{tb.DocKey}, tb.Residual...)
		cols = append(append(cols, tb.Big...), tb.Small...)
		if len(cols) != 24 {
			t.Errorf("ACDOCA has %d columns, want 24", len(cols))
		}
		for _, c := range cols {
			d.column(c)
		}
		d.index(tb.Index)
		return nil
	}
}

// TestGeneratorGoldenDigests pins each generator's output at seed 1, at
// sizes that run in about a second, to digests recorded before the
// generators moved to a bulk replica of math/rand's source ("Q1 in
// halves": before columns were encoded in two halves; "ACDOCA at 2^19
// rows": before a list of columns was encoded as one split job). A
// generator that draws differently fails here rather than only in the
// harness's figure goldens.
func TestGeneratorGoldenDigests(t *testing.T) {
	cases := []struct {
		name  string
		build func(*memory.Space, *workload.Rand, *setDigest) error
		want  uint64
	}{
		{"Q1", func(s *memory.Space, rng *workload.Rand, d *setDigest) error {
			q, err := workload.NewQ1(s, rng, workload.Q1Spec{Rows: 1 << 18, Distinct: 31250})
			if err == nil {
				d.column(q.Col)
			}
			return err
		}, 0x4003d54c80ddbf4a},
		{"Q1 in halves", func(s *memory.Space, rng *workload.Rand, d *setDigest) error {
			// The one size here with 2^21 rows a half, so the column is
			// encoded on two goroutines; 19-bit codes straddle words,
			// and the second half ends 7 rows into a run.
			q, err := workload.NewQ1(s, rng, workload.Q1Spec{Rows: 1<<22 + 7, Distinct: 312500})
			if err == nil {
				d.column(q.Col)
			}
			return err
		}, 0x301576fc95e91498},
		{"Q2", func(s *memory.Space, rng *workload.Rand, d *setDigest) error {
			q, err := workload.NewQ2(s, rng, workload.Q2Spec{Rows: 1 << 17, DistinctV: 31250, Groups: 3125})
			if err == nil {
				d.column(q.GroupCol)
				d.column(q.ValueCol)
			}
			return err
		}, 0x4f8e4104f6beba98},
		{"Q3", func(s *memory.Space, rng *workload.Rand, d *setDigest) error {
			// 2^14 build rows of 2^16 keys take the rejection sampler;
			// "Q3 shuffled" takes the shuffle.
			q, err := workload.NewQ3(s, rng, workload.Q3Spec{ProbeRows: 1 << 17, Keys: 1 << 16, PaperProbeRows: 1 << 19})
			if err == nil {
				d.column(q.PKCol)
				d.column(q.FKCol)
				d.region(q.BV.Region())
			}
			return err
		}, 0x75579bd1401f9716},
		{"Q3 shuffled", func(s *memory.Space, rng *workload.Rand, d *setDigest) error {
			q, err := workload.NewQ3(s, rng, workload.Q3Spec{ProbeRows: 1 << 12, Keys: 5000, PaperProbeRows: 1 << 12})
			if err == nil {
				d.column(q.PKCol)
				d.column(q.FKCol)
				d.region(q.BV.Region())
			}
			return err
		}, 0x55063637ef0f692a},
		// At 2^19 rows, the benchmark's, the 19 projection columns' draws
		// split on two goroutines, inside the tenth column.
		{"ACDOCA", acdocaDigest(t, 1<<15), 0xe4b0eac0e11f6b00},
		{"ACDOCA at 2^19 rows", acdocaDigest(t, 1<<19), 0xacc1b229f7aae155},
		{"TPC-H", func(s *memory.Space, rng *workload.Rand, d *setDigest) error {
			db, err := tpch.Load(s, rng, tpch.Spec{Scale: 32, LineitemRows: 1 << 16})
			if err != nil {
				return err
			}
			for _, tb := range []struct {
				t    *column.Table
				cols []string
			}{
				{db.Lineitem, []string{"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_quantity", "l_discount",
					"l_tax", "l_shipdate", "l_shipmode", "l_returnflag", "l_rfls", "l_natpair"}},
				{db.Orders, []string{"o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority", "o_totalprice", "o_year"}},
				{db.Customer, []string{"c_custkey", "c_mktsegment", "c_nationkey", "c_acctbal"}},
				{db.Part, []string{"p_partkey", "p_brand", "p_type", "p_size"}},
				{db.Supplier, []string{"s_suppkey", "s_nationkey"}},
			} {
				for _, name := range tb.cols {
					c, err := tb.t.Column(name)
					if err != nil {
						return err
					}
					d.column(c)
				}
			}
			return nil
		}, 0x6c8c15d7cc56df48},
	}
	for _, c := range cases {
		space, rng, d := memory.NewSpace(), workload.NewRand(1), newSetDigest()
		if err := c.build(space, rng, d); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d.word(space.Allocated(), uint64(rng.Int63()))
		if got := d.h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
