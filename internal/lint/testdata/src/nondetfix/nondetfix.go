// Package nondetfix is a golden-test fixture for the nondet analyzer.
// The "// want" comments name a substring of the diagnostic expected
// on that line; lines without one must stay clean.
package nondetfix

import (
	"maps"
	"math/rand"
	"sort"
	"time"
)

func globalRand() int {
	return rand.Intn(10) // want "global math/rand.Intn"
}

func seeded(rng *rand.Rand) int {
	r := rand.New(rand.NewSource(1)) // constructors build explicit generators: clean
	return r.Intn(10) + rng.Intn(5)  // methods on a seeded *rand.Rand: clean
}

func wallClock() time.Time {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
	return time.Now()            // want "time.Now reads the wall clock"
}

// An allow outside a main package is not honoured: a helper like this
// would launder the wall clock into every caller.
func allowedClock() time.Duration {
	return time.Since(time.Time{}) //lint:allow nondet fixture exercises the escape hatch
	// want "time.Since reads the wall clock; simulation state and reports must derive timing from the machine's virtual clock; //lint:allow nondet is honoured only in main packages"
}

// Nor is one on a package-level initializer.
var runSalt = rand.Int63n(2) //lint:allow nondet fixture exercises the escape hatch
// want "global math/rand.Int63n draws from a runtime-seeded source; thread a seeded *rand.Rand instead (cf. engine.RunOptions.Seed); //lint:allow nondet is honoured only in main packages"

type config struct {
	Seed int64
	Rate float64
}

func globalConfig() config {
	return config{Seed: rand.Int63() + runSalt, Rate: rand.Float64()} // want "global math/rand.Int63" "global math/rand.Float64"
}

func orderSensitiveAppend(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "map iteration order"
		out = append(out, v*2)
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collected then sorted below: clean
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func total(m map[string]int) (sum int) {
	for _, v := range m { // commutative accumulation: clean
		sum += v
	}
	return sum
}

func concat(m map[string]int) string {
	s := ""
	for k := range maps.Keys(m) { // want "map iteration order"
		s += k
	}
	return s
}

func arbitraryKey(m map[string]int) string {
	for key := range m { // want "map iteration order"
		return key
	}
	return ""
}

func invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m { // writes to distinct keys: clean
		inv[v] = k
	}
	return inv
}
