package cachepart

import (
	"math"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
)

// TestAblations asserts what EXPERIMENTS.md §Ablations and DESIGN.md §4
// claim for the four design choices the model ablates. Each row
// measures two numbers, a and b, and names the claim they must meet.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs in short mode")
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 0.02 }
	for _, ab := range []struct {
		name  string
		run   func() (a, b float64)
		holds func(a, b float64) bool
		claim string
	}{
		{"prefetcher", prefetchAblation, func(on, off float64) bool { return on >= 3*off },
			"the stride prefetcher (a: on, b: off) speeds the isolated scan up at least 3× (~5× documented)"},
		{"inclusive_llc", inclusiveAblation, near,
			"an inclusive (a) or non-inclusive (b) LLC changes the aggregation's shared co-run throughput negligibly (within 0.02)"},
		{"hash_vs_sort", hashSortAblation, func(hash, sort float64) bool { return hash <= 0.85 && sort >= 0.95 },
			"on 2 of 20 ways the hash aggregation (a) keeps at most 0.85 of its full-cache rate, the sort aggregation (b) at least 0.95"},
		{"mask_width", maskWidthAblation, near,
			"the isolated scan under mask 0x1 (a) and 0x3 (b) stays within 0.02: the §V-B single-way anomaly does not reproduce (the documented negative)"},
	} {
		t.Run(ab.name, func(t *testing.T) {
			a, b := ab.run()
			t.Logf("a = %.4g, b = %.4g, a/b = %.4g", a, b, a/b)
			if !ab.holds(a, b) {
				t.Errorf("want: %s; got a = %.4g, b = %.4g", ab.claim, a, b)
			}
		})
	}
}

// ablationSystem builds a System at 1/64 scale, small enough that all
// four ablations run in seconds. A non-nil edit rebuilds the machine
// from the edited configuration.
func ablationSystem(edit func(*cachesim.Config)) *System {
	sys := must(NewSystem(Params{
		Scale:     64,
		Cores:     8,
		Ways:      []int{2, 8, 20},
		Duration:  0.002,
		RowsScan:  1 << 21,
		RowsAgg:   1 << 19,
		RowsProbe: 1 << 19,
		Seed:      1,
	}))
	if edit != nil {
		cfg := sys.Machine.Config()
		edit(&cfg)
		sys.Machine = must(cachesim.New(cfg))
		sys.Engine = must(engine.New(sys.Machine, sys.Engine.Policy()))
	}
	return sys
}

// must panics on a setup error, which fails the test that hit it.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// prefetchAblation returns the isolated scan's throughput with the
// stride prefetcher on and off: the mechanism that makes scans
// bandwidth-bound and cache-insensitive.
func prefetchAblation() (on, off float64) {
	scan := func(depth int) float64 {
		sys := ablationSystem(func(c *cachesim.Config) { c.PrefetchDepth = depth })
		return must(sys.RunIsolated(must(NewScanQuery(sys)), sys.AllCores())).Throughput
	}
	return scan(16), scan(0)
}

// inclusiveAblation returns the aggregation's shared co-run throughput
// beside the scan, normalized to isolated, under an inclusive and a
// non-inclusive LLC: back-invalidation is how pollution reaches the
// victim's private caches.
func inclusiveAblation() (inclusive, nonInclusive float64) {
	norm := func(incl bool) float64 {
		sys := ablationSystem(func(c *cachesim.Config) { c.InclusiveLLC = incl })
		scan := must(NewScanQuery(sys))
		agg := must(NewAggQuery(sys, 10_000_000, 10_000))
		ca, cb := sys.SplitCores()
		iso := must(sys.RunIsolated(agg, cb))
		_, shared, err := sys.RunPair(scan, ca, agg, cb)
		if err != nil {
			panic(err)
		}
		return shared.Throughput / iso.Throughput
	}
	return norm(true), norm(false)
}

// hashSortAblation returns, for the hash aggregation and for the
// sort-based radix aggregation, the rate on 2 ways over the rate on 20:
// the two families of the related work ("hashing is sorting").
func hashSortAblation() (hash, sort float64) {
	rate := func(useSort bool, ways int) float64 {
		sys := ablationSystem(nil)
		if err := sys.Engine.LimitWays(ways); err != nil {
			panic(err)
		}
		const n = 1 << 18
		// Group count chosen so the hash table is LLC-sized at this
		// scale, the most cache-sensitive regime.
		groups := must(GenerateColumn(sys, "g", n, 1, 40_000))
		values := must(GenerateColumn(sys, "v", n, 1, 1000))
		var k exec.Kernel
		if useSort {
			k = must(exec.NewSortAggLocal(sys.Space, groups, values, 0, n, 64))
		} else {
			k = must(exec.NewAggLocal(groups, values, 0, n, exec.NewAggTable(sys.Space, "hash", groups.Dict.Len())))
		}
		exec.Drive(sys.Engine.Ctx(0), k, 2048)
		return n / sys.Machine.Seconds(sys.Machine.Now(0))
	}
	return rate(false, 2) / rate(false, 20), rate(true, 2) / rate(true, 20)
}

// maskWidthAblation returns the isolated scan's throughput under a
// one-way and a two-way mask, each over its full-cache throughput.
func maskWidthAblation() (oneWay, twoWay float64) {
	sys := ablationSystem(nil)
	scan := must(NewScanQuery(sys))
	rate := func(ways int) float64 {
		if err := sys.Engine.LimitWays(ways); err != nil {
			panic(err)
		}
		return must(sys.RunIsolated(scan, sys.AllCores())).Throughput
	}
	one, two, full := rate(1), rate(2), rate(20)
	return one / full, two / full
}
