package allocs

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

var sink []byte

// TestTopNamesTheLine: the lines top prints are the allocating lines of
// the run, counted exactly, and the profile rate is restored.
func TestTopNamesTheLine(t *testing.T) {
	rate := runtime.MemProfileRate
	var line int
	got := top(func() {
		_, _, line, _ = runtime.Caller(0)
		for i := 0; i < 100; i++ {
			sink = make([]byte, 64)
		}
	}, 5)
	want := fmt.Sprintf("     100  internal/allocs/allocs_test.go:%d\n", line+2)
	if !strings.HasPrefix(strings.TrimLeft(got, "\t"), want) {
		t.Errorf("top printed\n%s\nwant its first line to be %q", got, want)
	}
	if runtime.MemProfileRate != rate {
		t.Errorf("MemProfileRate = %d after top, want %d restored", runtime.MemProfileRate, rate)
	}
}
