// Package allocs is the failure message of the alloc budgets: a test
// whose steady-state allocation count exceeds its budget re-runs the
// measured part with every allocation sampled and names the source
// lines that allocated most. Only tests import it.
package allocs

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// module is the import path prefix of this repository's code.
const module = "cachepart/"

// Check fails t when got, the allocations measured for what, exceed
// budget. The failure runs run once more with runtime.MemProfileRate
// at 1 and lists the lines that allocated most in it. A passing check
// never touches the profile rate.
func Check(t testing.TB, what string, got, budget float64, run func()) {
	t.Helper()
	if got <= budget {
		return
	}
	t.Errorf("%s allocates %.2f, budget %.2f; top allocating lines of one more run:\n%s",
		what, got, budget, top(run, 5))
}

// site is one allocating line and the objects it allocated.
type site struct {
	line    string
	objects int64
}

// top runs run with every allocation sampled and returns its n most
// allocating lines, one per row as "objects  file:line". A line is the
// first frame outside the runtime; when that frame is outside the
// module too (fmt, sort), the module frame that called it follows in
// parentheses. The previous profile rate is restored.
func top(run func(), n int) string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := make(map[[32]uintptr]int64)
	for _, r := range profile() {
		before[r.Stack0] += r.AllocObjects
	}
	run()
	byLine := make(map[string]int64)
	for _, r := range profile() {
		if d := r.AllocObjects - before[r.Stack0]; d > 0 {
			if line := lineOf(r.Stack()); line != "" {
				byLine[line] += d
			}
		}
	}
	var sites []site
	for line, objects := range byLine {
		sites = append(sites, site{line, objects})
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].objects != sites[j].objects {
			return sites[i].objects > sites[j].objects
		}
		return sites[i].line < sites[j].line
	})
	if len(sites) > n {
		sites = sites[:n]
	}
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "\t%8d  %s\n", s.objects, s.line)
	}
	if len(sites) == 0 {
		b.WriteString("\t(no allocation sampled)\n")
	}
	return b.String()
}

// profile returns the allocation profile once the collections it lags
// behind have run.
func profile() []runtime.MemProfileRecord {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// lineOf names the allocating line of a stack; "" for one that top or
// profile made itself.
func lineOf(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	first := ""
	for {
		f, more := frames.Next()
		if f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/runtime/") {
			inModule := strings.HasPrefix(f.Function, module)
			pos := fmt.Sprintf("%s:%d", relative(f.File), f.Line)
			switch {
			case first == "" && (f.Function == module+"internal/allocs.top" || f.Function == module+"internal/allocs.profile"):
				return ""
			case first == "" && inModule:
				return pos
			case first == "":
				first = pos
			case inModule:
				return first + " (from " + pos + ")"
			}
		}
		if !more {
			return first
		}
	}
}

// root is the module's directory, from this file's own path.
var root = func() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(filepath.Dir(filepath.Dir(file))) + string(filepath.Separator)
}()

// relative shortens a file under the module to its module path.
func relative(file string) string {
	return strings.TrimPrefix(file, root)
}
