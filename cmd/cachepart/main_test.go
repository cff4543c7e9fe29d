package main

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestParseLoads pins the -loads contract: every entry is a finite
// positive capacity multiple, and anything else is rejected rather
// than swept.
func TestParseLoads(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		ok   bool
	}{
		{"NaN", nil, false},
		{"+Inf", nil, false},
		{"-1", nil, false},
		{"0", nil, false},
		{"1,3", []float64{1, 3}, true},
	} {
		got, err := parseLoads(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseLoads(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseLoads(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestBadNumericFlagsExit2 pins the numeric flags' contract: 0 keeps
// the default, and a negative, NaN or infinite value exits 2 naming
// the flag instead of silently running at the default. So does a
// -burst factor in (0, 1], which would inject no burst.
func TestBadNumericFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "-4"},
		{"-cores", "-3"},
		{"-duration", "-1"},
		{"-rows", "-1"},
		{"-scanrows", "-1"},
		{"-capacity", "-1"},
		{"-arrivals", "-1"},
		{"-slo", "-1"},
		{"-retries", "-1"},
		{"-burst", "-1"},
		{"-burst", "0.5"},
		{"-burst", "1"},
		{"-duration", "NaN"},
		{"-slo", "+Inf"},
	} {
		var stderr bytes.Buffer
		code := run(append([]string{"-fast"}, append(args, "fig12")...), io.Discard, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), args[0]+" ") {
			t.Errorf("cachepart %s %s fig12: exit %d, stderr %q; want exit 2 naming %s", args[0], args[1], code, stderr.String(), args[0])
		}
	}
}
