// Command cachepart regenerates the paper's tables and figures on the
// simulated machine. Each subcommand runs one experiment and prints
// the series the paper plots.
//
// Usage:
//
//	cachepart [flags] <fig1|fig4|fig5|fig6|fig9|fig10|fig11|fig12|proj|derive|cosched|adapt|chaos|serve|overload|all>
//
// Flags tune the machine scale, core count and the simulated
// measurement window; see -help.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cachepart/internal/core"
	"cachepart/internal/fault"
	"cachepart/internal/harness"
	"cachepart/internal/resctrl"
	"cachepart/internal/serve"
)

func main() {
	var (
		fast     = flag.Bool("fast", false, "use 1/32-scale test parameters")
		scale    = flag.Int("scale", 0, "divide the paper machine's sizes by this factor (default 8, or 32 with -fast)")
		cores    = flag.Int("cores", 0, "simulated physical cores (default 22)")
		duration = flag.Float64("duration", 0, "simulated seconds per measurement (default 0.008)")
		rows     = flag.Int("rows", 0, "sampled rows per aggregation/join input (default ~2M)")
		scanRows = flag.Int("scanrows", 0, "rows of the scan column (default ~33M; must exceed the scaled LLC several times)")
		ways     = flag.String("ways", "", "comma-separated LLC way limits to sweep (default 2,4,...,20)")
		seed     = flag.Int64("seed", 1, "random seed")

		// serve-only flags (DESIGN.md §13).
		loads    = flag.String("loads", "", "serve: comma-separated capacity multiples to sweep (default 0.7,1.0,3.0)")
		capacity = flag.Int("capacity", 0, "serve: per-tenant queue capacity (default 16)")
		arrivals = flag.Int("arrivals", 0, "serve: target arrivals per load point (default 240; overload default 320)")

		// overload-only flags (DESIGN.md §15).
		sloMult = flag.Float64("slo", 0, "overload: SLO multiple of each tenant's isolated mean latency (default 15)")
		sheds   = flag.String("shed", "", "overload: comma-separated shedding policies to sweep — none, fair, polluter (default all)")
		retries = flag.Int("retries", 0, "overload: client retry attempts per query (default 3; 1 disables retries)")
		burst   = flag.Float64("burst", 0, "overload: inject a serving-plane arrival-burst fault at this rate factor (default off)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cachepart [flags] <fig1|fig4|fig5|fig6|fig9|fig10|fig11|fig12|proj|derive|cosched|adapt|chaos|serve|overload|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	p := harness.Default()
	if *fast {
		p = harness.Fast()
		p.Cores = 22
	}
	if *scale > 0 {
		p.Scale = *scale
	}
	if *cores > 0 {
		p.Cores = *cores
	}
	if *duration > 0 {
		p.Duration = *duration
	}
	if *rows > 0 {
		p.RowsAgg = *rows
		p.RowsProbe = *rows
	}
	if *scanRows > 0 {
		p.RowsScan = *scanRows
	}
	if *ways != "" {
		p.Ways = nil
		for _, field := range strings.Split(*ways, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || w < 1 || w > 20 {
				fmt.Fprintf(os.Stderr, "cachepart: bad -ways entry %q\n", field)
				os.Exit(2)
			}
			p.Ways = append(p.Ways, w)
		}
	}
	p.Seed = *seed

	cmd := flag.Arg(0)
	t0 := time.Now() //lint:allow nondet operator-facing progress timing, not simulation state
	var err error
	switch cmd {
	case "fig1":
		err = runFig1(p)
	case "fig4":
		err = runFig4(p)
	case "fig5":
		err = runFig5(p)
	case "fig6":
		err = runFig6(p)
	case "fig9":
		err = runFig9(p)
	case "fig10":
		err = runFig10(p)
	case "fig11":
		err = runFig11(p)
	case "fig12":
		err = runFig12(p)
	case "proj":
		err = runProj(p)
	case "derive":
		err = runDerive(p)
	case "cosched":
		err = runCoSched(p)
	case "adapt":
		err = runAdapt(p)
	case "chaos":
		err = runChaos(p)
	case "serve":
		var o harness.ServeOptions
		o, err = serveOptions(*loads, *capacity, *arrivals)
		if err == nil {
			err = runServe(p, o)
		}
	case "overload":
		var o harness.OverloadOptions
		o, err = overloadOptions(*loads, *arrivals, *sloMult, *sheds, *retries, *burst, *capacity, *seed)
		if err == nil {
			err = runOverload(p, o)
		}
	case "all":
		for _, f := range []func(harness.Params) error{
			runFig4, runFig5, runFig6, runFig9, runFig10, runFig11, runFig12, runFig1, runProj, runDerive, runCoSched, runAdapt, runChaos,
		} {
			if err = f(p); err != nil {
				break
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cachepart: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(t0) //lint:allow nondet operator-facing progress timing, not simulation state
	fmt.Printf("(%s, scale 1/%d, %d cores, %.0f ms windows, completed in %.1fs)\n",
		cmd, p.Scale, p.Cores, p.Duration*1e3, elapsed.Seconds())
}

func runFig1(p harness.Params) error {
	r, err := harness.Fig1(p)
	if err != nil {
		return err
	}
	harness.PrintFig1(os.Stdout, r)
	return nil
}

func runFig4(p harness.Params) error {
	pts, err := harness.Fig4(p)
	if err != nil {
		return err
	}
	harness.PrintWayPoints(os.Stdout, "Figure 4 — column scan vs. LLC size (expect: flat)", pts)
	return nil
}

func runFig5(p harness.Params) error {
	sets, err := harness.Fig5(p)
	if err != nil {
		return err
	}
	harness.PrintCurveSets(os.Stdout, "Figure 5 — aggregation vs. LLC size (expect: knees where hash table ≈ LLC)", sets)
	return nil
}

func runFig6(p harness.Params) error {
	series, err := harness.Fig6(p)
	if err != nil {
		return err
	}
	harness.PrintGroupSeries(os.Stdout, "Figure 6 — foreign-key join vs. LLC size (expect: only P=1e8 sensitive)", series)
	return nil
}

func runFig9(p harness.Params) error {
	panels, err := harness.Fig9(p)
	if err != nil {
		return err
	}
	for _, panel := range panels {
		harness.PrintPairRows(os.Stdout,
			"Figure 9 — scan ∥ aggregation, "+panel.Label+" (A=scan, B=aggregation)", panel.Rows)
	}
	return nil
}

func runFig10(p harness.Params) error {
	rows, err := harness.Fig10(p)
	if err != nil {
		return err
	}
	harness.PrintPairRows(os.Stdout,
		"Figure 10 — aggregation ∥ join under join→10% and join→60% schemes (A=aggregation, B=join)", rows)
	return nil
}

func runFig11(p harness.Params) error {
	rows, err := harness.Fig11(p)
	if err != nil {
		return err
	}
	harness.PrintPairRows(os.Stdout,
		"Figure 11 — column scan ∥ TPC-H queries (A=scan, B=TPC-H; expect Q1/Q7/Q8/Q9 to gain most)", rows)
	return nil
}

func runFig12(p harness.Params) error {
	rows, err := harness.Fig12(p)
	if err != nil {
		return err
	}
	harness.PrintPairRows(os.Stdout,
		"Figure 12 — column scan ∥ S/4HANA OLTP query (A=scan, B=OLTP)", rows)
	return nil
}

func runProj(p harness.Params) error {
	rows, err := harness.FigProjSweep(p)
	if err != nil {
		return err
	}
	harness.PrintPairRows(os.Stdout,
		"Section VI-E sweep — OLTP benefit vs. projected columns (A=scan, B=OLTP)", rows)
	return nil
}

// runAdapt contrasts the static scheme with the online feedback
// controller on the Figure 9(b) co-run, with correct annotations and
// with annotations stripped (where only the controller can tell the
// scan from the aggregation).
func runAdapt(p harness.Params) error {
	r, err := harness.FigAdapt(p)
	if err != nil {
		return err
	}
	harness.PrintPairRows(os.Stdout,
		"Adaptive controller — scan ∥ aggregation, annotated (A=scan, B=aggregation)",
		[]harness.PairRow{r.Annotated})
	harness.PrintPairRows(os.Stdout,
		"Adaptive controller — scan ∥ aggregation, annotations stripped (A=scan, B=aggregation)",
		[]harness.PairRow{r.Blind})
	return nil
}

// runChaos sweeps control-plane fault rates over the partitioned
// co-run: every point must complete without error, trading isolation
// (degraded placements) and retry cycles for survival.
func runChaos(p harness.Params) error {
	r, err := harness.FigChaos(p)
	if err != nil {
		return err
	}
	harness.PrintChaos(os.Stdout, r)
	return nil
}

// serveOptions folds the serve-only flags into harness.ServeOptions.
func serveOptions(loads string, capacity, arrivals int) (harness.ServeOptions, error) {
	l, err := parseLoads(loads)
	return harness.ServeOptions{Loads: l, QueueCap: capacity, Arrivals: arrivals}, err
}

// parseLoads parses the -loads list; empty keeps the sweep's default.
func parseLoads(loads string) ([]float64, error) {
	if loads == "" {
		return nil, nil
	}
	var out []float64
	for _, field := range strings.Split(loads, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || l <= 0 {
			return nil, fmt.Errorf("bad -loads entry %q", field)
		}
		out = append(out, l)
	}
	return out, nil
}

// runServe regenerates the FigServe capacity sweep: the open-loop
// multi-tenant serving tier under shared-cache, static partitioning and
// the adaptive controller.
func runServe(p harness.Params, o harness.ServeOptions) error {
	r, err := harness.FigServeOpts(p, o)
	if err != nil {
		return err
	}
	harness.PrintServe(os.Stdout, r)
	return nil
}

// overloadOptions folds the overload-only flags into
// harness.OverloadOptions.
func overloadOptions(loads string, arrivals int, sloMult float64, sheds string, retries int, burst float64, capacity int, seed int64) (harness.OverloadOptions, error) {
	o := harness.OverloadOptions{Arrivals: arrivals, SLOMultiple: sloMult, QueueCap: capacity}
	var err error
	if o.Loads, err = parseLoads(loads); err != nil {
		return o, err
	}
	if sheds != "" {
		for _, field := range strings.Split(sheds, ",") {
			name := strings.TrimSpace(field)
			if _, err := serve.ParseShedPolicy(name); err != nil {
				return o, err
			}
			o.Sheds = append(o.Sheds, name)
		}
	}
	if retries > 0 {
		o.Retry = serve.Retry{MaxAttempts: retries, BudgetFraction: 0.3}
	}
	if burst > 0 {
		o.ServeFaults = &fault.ServeConfig{Seed: seed, Bursts: 1, BurstFactor: burst}
	}
	return o, nil
}

// runOverload regenerates the FigOverload sweep: the serving tier
// under rogue-polluter overload with SLO-aware shedding, retries and
// circuit breakers.
func runOverload(p harness.Params, o harness.OverloadOptions) error {
	r, err := harness.FigOverloadOpts(p, o)
	if err != nil {
		return err
	}
	harness.PrintOverload(os.Stdout, r)
	return nil
}

func runCoSched(p harness.Params) error {
	row, err := harness.FigCoSchedule(p)
	if err != nil {
		return err
	}
	harness.PrintCoSchedule(os.Stdout, row)
	return nil
}

// runDerive demonstrates the automated Section V-B: derive the
// partitioning scheme from the measured scan curve.
func runDerive(p harness.Params) error {
	pts, err := harness.Fig4(p)
	if err != nil {
		return err
	}
	curve := make([]core.CurvePoint, 0, len(pts))
	for _, pt := range pts {
		curve = append(curve, core.CurvePoint{Ways: pt.Ways, Throughput: pt.Norm})
	}
	cuid, err := core.ClassifyCurve(curve, 20)
	if err != nil {
		return err
	}
	pol, err := core.DeriveScheme(55<<20, 20, [][]core.CurvePoint{curve})
	if err != nil {
		return err
	}
	pol.Enabled = true
	fmt.Printf("Derived scheme — the scan classifies as %q; polluting mask %v (%d of 20 ways)\n\n",
		cuid, pol.MaskFor(core.Polluting, core.Footprint{}),
		pol.MaskFor(core.Polluting, core.Footprint{}).Ways())
	script, err := resctrl.Script(pol)
	if err != nil {
		return err
	}
	fmt.Println("To apply on a real Linux machine with CAT:")
	fmt.Println(script)
	return nil
}
