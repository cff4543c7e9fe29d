package harness

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// printGroupSeries renders a family of sweeps (Figure 6 style).
func printGroupSeries(w io.Writer, title string, series []GroupSeries) {
	fmt.Fprintf(w, "%s\n", title)
	if len(series) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{"LLC(paper MiB)"}
	for _, s := range series {
		header = append(header, s.Label)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for i := range series[0].Points {
		row := []string{fmt.Sprintf("%.2f", series[0].Points[i].LLCMiB)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.3f", s.Points[i].Norm))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// printPairRows renders co-run results (Figures 9-12 style): per row,
// each query's normalized throughput under every arm.
func printPairRows(w io.Writer, title string, rows []PairRow) {
	fmt.Fprintf(w, "%s\n", title)
	if len(rows) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{"workload"}
	for _, arm := range rows[0].Arms {
		header = append(header,
			fmt.Sprintf("A:%s", arm.Name),
			fmt.Sprintf("B:%s", arm.Name))
	}
	header = append(header, "A hit sh/part", "B hit sh/part")
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		row := []string{fmt.Sprintf("%s [A=%s B=%s]", r.Label, r.NameA, r.NameB)}
		for _, arm := range r.Arms {
			row = append(row,
				fmt.Sprintf("%.3f", arm.NormA),
				fmt.Sprintf("%.3f", arm.NormB))
		}
		row = append(row, hitPair(r, "A"), hitPair(r, "B"))
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func hitPair(r PairRow, side string) string {
	sh, ok1 := r.Arm("shared")
	pt, ok2 := r.Arm("partitioned")
	if !ok2 {
		pt, ok2 = r.Arm("join60")
	}
	if !ok1 || !ok2 {
		return "-"
	}
	if side == "A" {
		return fmt.Sprintf("%.2f/%.2f", sh.A.HitRatio, pt.A.HitRatio)
	}
	return fmt.Sprintf("%.2f/%.2f", sh.B.HitRatio, pt.B.HitRatio)
}

// PrintFig4 renders the Figure 4 scan sweep, then the scheme derived
// from it and its resctrl script.
func PrintFig4(w io.Writer, r Fig4Result) {
	fmt.Fprintln(w, "Figure 4 — column scan vs. LLC size (expect: flat)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ways\tLLC(paper MiB)\tnorm.throughput\tLLC hit ratio\tmisses/instr\tDRAM GB/s")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%d\t%.2f\t%.3f\t%.3f\t%.2e\t%.1f\n",
			p.Ways, p.LLCMiB, p.Norm, p.Measure.HitRatio, p.Measure.MPI, p.Measure.Bandwidth/1e9)
	}
	tw.Flush()
	fmt.Fprintln(w)

	d := r.Scheme
	fmt.Fprintf(w, "Derived scheme — the scan classifies as %q; polluting mask %v (%d of 20 ways)\n\n",
		d.CUID, d.Mask, d.Mask.Ways())
	fmt.Fprintln(w, "To apply on a real Linux machine with CAT:")
	fmt.Fprintln(w, d.Script)
}

// PrintFig5 renders the Figure 5 aggregation panels.
func PrintFig5(w io.Writer, sets []CurveSet) {
	fmt.Fprint(w, "Figure 5 — aggregation vs. LLC size (expect: knees where hash table ≈ LLC)\n\n")
	for _, set := range sets {
		printGroupSeries(w, "  "+set.Label, set.Series)
	}
}

// PrintFig6 renders the Figure 6 join sweeps.
func PrintFig6(w io.Writer, series []GroupSeries) {
	printGroupSeries(w, "Figure 6 — foreign-key join vs. LLC size (expect: only P=1e8 sensitive)", series)
}

// PrintFig9 renders one table per Figure 9 panel.
func PrintFig9(w io.Writer, panels []Fig9Panel) {
	for _, panel := range panels {
		printPairRows(w, "Figure 9 — scan ∥ aggregation, "+panel.Label+" (A=scan, B=aggregation)", panel.Rows)
	}
}

// PrintFig10 renders the Figure 10 co-runs.
func PrintFig10(w io.Writer, rows []PairRow) {
	printPairRows(w, "Figure 10 — aggregation ∥ join under join→10% and join→60% schemes (A=aggregation, B=join)", rows)
}

// PrintFig11 renders the Figure 11 TPC-H co-runs.
func PrintFig11(w io.Writer, rows []PairRow) {
	printPairRows(w, "Figure 11 — column scan ∥ TPC-H queries (A=scan, B=TPC-H; expect Q1/Q7/Q8/Q9 to gain most)", rows)
}

// PrintFig12 renders the Figure 12 OLTP co-runs, then the teaser
// (Figure 1): the first row's OLTP throughput isolated, concurrent to
// the scan, and concurrent with partitioning applied.
func PrintFig12(w io.Writer, rows []PairRow) {
	printPairRows(w, "Figure 12 — column scan ∥ S/4HANA OLTP query (A=scan, B=OLTP)", rows)
	if len(rows) == 0 {
		return
	}
	shared, _ := rows[0].Arm("shared")
	part, _ := rows[0].Arm("partitioned")
	fmt.Fprintln(w, "Figure 1 — OLTP query throughput (normalized to isolated):")
	bars := []struct {
		label string
		v     float64
	}{
		{"isolated", 1.0},
		{"concurrent to OLAP", shared.NormB},
		{"concurrent, cache partitioned", part.NormB},
	}
	for _, b := range bars {
		n := int(b.v*40 + 0.5)
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "  %-30s %-40s %.2f\n", b.label, strings.Repeat("#", n), b.v)
	}
	fmt.Fprintln(w)
}

// PrintProj renders the Section VI-E projected-columns sweep.
func PrintProj(w io.Writer, rows []PairRow) {
	printPairRows(w, "Section VI-E sweep — OLTP benefit vs. projected columns (A=scan, B=OLTP)", rows)
}

// PrintAdapt renders the adaptive-controller co-run, annotated and
// with annotations stripped.
func PrintAdapt(w io.Writer, r AdaptResult) {
	printPairRows(w, "Adaptive controller — scan ∥ aggregation, annotated (A=scan, B=aggregation)",
		[]PairRow{r.Annotated})
	printPairRows(w, "Adaptive controller — scan ∥ aggregation, annotations stripped (A=scan, B=aggregation)",
		[]PairRow{r.Blind})
}
