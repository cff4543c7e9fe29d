// Command cachepart regenerates the paper's tables and figures on the
// simulated machine. Each subcommand names one entry of
// harness.Figures, runs that experiment and prints the series the
// paper plots; all runs every entry in table order.
//
// Usage:
//
//	cachepart [flags] <figure|all>
//
// Flags tune the machine scale, core count and the simulated
// measurement window; -help lists them and the figure names.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"cachepart/internal/fault"
	"cachepart/internal/harness"
	"cachepart/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints the chosen figures to
// stdout and returns the exit status. Bad flags return 2, as the flag
// package does, and a failed run returns 1.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("cachepart", flag.ExitOnError)
	flags.SetOutput(stderr)
	var (
		fast     = flags.Bool("fast", false, "use 1/32-scale test parameters")
		scale    = flags.Int("scale", 0, "divide the paper machine's sizes by this factor (default 8, or 32 with -fast)")
		cores    = flags.Int("cores", 0, "simulated physical cores (default 22)")
		duration = flags.Float64("duration", 0, "simulated seconds per measurement (default 0.008)")
		rows     = flags.Int("rows", 0, "sampled rows per aggregation/join input (default ~2M)")
		scanRows = flags.Int("scanrows", 0, "rows of the scan column (default ~33M; must exceed the scaled LLC several times)")
		ways     = flags.String("ways", "", "comma-separated LLC way limits to sweep (default 2,4,...,20)")
		seed     = flags.Int64("seed", 1, "random seed")

		// serve-only flags (DESIGN.md §12).
		loads    = flags.String("loads", "", "serve: comma-separated capacity multiples to sweep (default 0.7,1.0,3.0)")
		capacity = flags.Int("capacity", 0, "serve: per-tenant queue capacity (default 16)")
		arrivals = flags.Int("arrivals", 0, "serve: target arrivals per load point (default 240; overload default 320)")

		// overload-only flags (DESIGN.md §13).
		sloMult = flags.Float64("slo", 0, "overload: SLO multiple of each tenant's isolated mean latency (default 15)")
		sheds   = flags.String("shed", "", "overload: comma-separated shedding policies to sweep — none, fair, polluter (default all)")
		retries = flags.Int("retries", 0, "overload: client retry attempts per query (default 3; 1 disables retries)")
		burst   = flags.Float64("burst", 0, "overload: inject a serving-plane arrival-burst fault at this rate factor, > 1 (default off)")
	)
	figures := harness.Figures()
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.Name)
	}
	names = append(names, "all")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: cachepart [flags] <%s>\n", strings.Join(names, "|"))
		flags.PrintDefaults()
	}
	bad := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "cachepart: "+format+"\n", args...)
		return 2
	}
	flags.Parse(args) // ExitOnError: a parse error exits 2 here
	if flags.NArg() != 1 {
		flags.Usage()
		return 2
	}
	// Every numeric flag but -seed is a scale, count, size, time or
	// rate: a negative, NaN or infinite value is an error, and 0 keeps
	// the default.
	var badValue error
	flags.Visit(func(f *flag.Flag) {
		v, err := strconv.ParseFloat(f.Value.String(), 64)
		if badValue == nil && err == nil && f.Name != "seed" && (v < 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			badValue = fmt.Errorf("bad -%s value %v", f.Name, v)
		}
	})
	if badValue != nil {
		return bad("%v", badValue)
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
				return bad("bad -ways entry %q", field)
			}
			p.Ways = append(p.Ways, w)
		}
	}
	p.Seed = *seed
	l, err := parseLoads(*loads)
	if err != nil {
		return bad("%v", err)
	}
	p.Serve = harness.ServeOptions{Loads: l, QueueCap: *capacity, Arrivals: *arrivals}
	p.Overload = harness.OverloadOptions{Loads: l, Arrivals: *arrivals, SLOMultiple: *sloMult, Retries: *retries, QueueCap: *capacity}
	if *sheds != "" {
		for _, field := range strings.Split(*sheds, ",") {
			s, err := serve.ParseShed(strings.TrimSpace(field))
			if err != nil {
				return bad("bad -shed entry %q", field)
			}
			p.Overload.Sheds = append(p.Overload.Sheds, s)
		}
	}
	if *burst > 0 {
		faults := &fault.ServeConfig{Seed: *seed, Bursts: 1, BurstFactor: *burst}
		if err := faults.Validate(); err != nil {
			return bad("bad -burst value %v: %v", *burst, err)
		}
		p.Overload.ServeFaults = faults
	}

	cmd := flags.Arg(0)
	run := figures
	if cmd != "all" {
		run = nil
		for _, f := range figures {
			if f.Name == cmd {
				run = []harness.Figure{f}
			}
		}
		if run == nil {
			flags.Usage()
			return 2
		}
	}
	t0 := time.Now() //lint:allow nondet operator-facing progress timing, not simulation state
	for _, f := range run {
		if err := f.Render(p, stdout); err != nil {
			fmt.Fprintf(stderr, "cachepart: %v\n", err)
			return 1
		}
	}
	elapsed := time.Since(t0) //lint:allow nondet operator-facing progress timing, not simulation state
	fmt.Fprintf(stdout, "(%s, scale 1/%d, %d cores, %.0f ms windows, completed in %.1fs)\n",
		cmd, p.Scale, p.Cores, p.Duration*1e3, elapsed.Seconds())
	return 0
}

// parseLoads parses the -loads list; empty keeps the sweep's default.
// Every entry must be a finite positive multiple.
func parseLoads(loads string) ([]float64, error) {
	if loads == "" {
		return nil, nil
	}
	var out []float64
	for _, field := range strings.Split(loads, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || !(l > 0) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("bad -loads entry %q", field)
		}
		out = append(out, l)
	}
	return out, nil
}
