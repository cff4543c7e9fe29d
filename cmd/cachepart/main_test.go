package main

import (
	"reflect"
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
