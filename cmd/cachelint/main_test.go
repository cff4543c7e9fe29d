package main

import (
	"go/token"
	"strings"
	"testing"

	"cachepart/internal/lint"
)

// TestPrintDiagnosticsAllowed pins the allowed-findings contract: a
// finding suppressed by //lint:allow is neither printed nor counted in
// text mode, and is printed, marked allowed, under -json.
func TestPrintDiagnosticsAllowed(t *testing.T) {
	diags := []lint.Diagnostic{{
		Pos:     token.Position{Filename: "/m/a.go", Line: 3, Column: 7},
		Check:   "nondet",
		Message: "msg",
		Allowed: true,
	}}
	var text strings.Builder
	failing, err := printDiagnostics(&text, diags, "/m", false)
	if err != nil || failing != 0 || text.Len() != 0 {
		t.Errorf("text mode: failing %d, err %v, output %q; want 0, nil, empty", failing, err, text.String())
	}
	var js strings.Builder
	failing, err = printDiagnostics(&js, diags, "/m", true)
	want := `{"file":"a.go","line":3,"col":7,"check":"nondet","message":"msg","allowed":true}` + "\n"
	if err != nil || failing != 0 || js.String() != want {
		t.Errorf("json mode: failing %d, err %v, output %q; want 0, nil, %q", failing, err, js.String(), want)
	}
}
