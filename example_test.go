package cachepart_test

import (
	"fmt"

	"cachepart"
)

// The paper's partitioning scheme (Section V-B/V-C): polluting jobs
// get 10% of a 20-way LLC, sensitive jobs the full cache, joins 10%
// or 60% by the bit-vector heuristic.
func ExampleDefaultPolicy() {
	policy := cachepart.DefaultPolicy(55<<20, 20)
	policy.Enabled = true

	fmt.Println("polluting:", policy.MaskFor(cachepart.Polluting, cachepart.Footprint{}))
	fmt.Println("sensitive:", policy.MaskFor(cachepart.Sensitive, cachepart.Footprint{}))
	fmt.Println("join, 10^6 keys:", policy.MaskFor(cachepart.Depends,
		cachepart.Footprint{BitVectorBytes: 125_000}))
	fmt.Println("join, 10^8 keys:", policy.MaskFor(cachepart.Depends,
		cachepart.Footprint{BitVectorBytes: 12_500_000}))
	// Output:
	// polluting: 0x3
	// sensitive: 0xfffff
	// join, 10^6 keys: 0x3
	// join, 10^8 keys: 0xfff
}

// Classifying operators from measured LLC sweeps automates the paper's
// Section V-B: a flat curve is a polluter, one that needs the whole
// cache is sensitive.
func ExampleClassifyCurve() {
	flat := make([]cachepart.CurvePoint, 20)
	rising := make([]cachepart.CurvePoint, 20)
	for i := range flat {
		flat[i] = cachepart.CurvePoint{Ways: i + 1, Throughput: 1.0}
		rising[i] = cachepart.CurvePoint{Ways: i + 1, Throughput: 0.3 + 0.035*float64(i+1)}
	}
	scan, _ := cachepart.ClassifyCurve(flat, 20)
	agg, _ := cachepart.ClassifyCurve(rising, 20)
	fmt.Println("scan-like curve:", scan)
	fmt.Println("aggregation-like curve:", agg)
	// Output:
	// scan-like curve: polluting
	// aggregation-like curve: sensitive
}
