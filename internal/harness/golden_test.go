package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/<name>.txt for each figure test run")

// goldenDir holds one <name>.txt per figure: exactly the bytes the CLI
// prints for it. Its sweep/ subdirectory pins the wider sweeps the
// smoke tests run, which are no figure's.
const goldenDir = "testdata/golden"

// TestGoldenDigests keeps testdata/golden in step with the figure
// table: exactly one file per entry of Figures. Each file pins what
// the CLI prints for that figure; the test that already runs the
// figure checks it with checkGolden. The simulator is deterministic
// per seed, so any drift is a behaviour change; a PR that moves a
// figure regenerates its file with `go test ./internal/harness
// -update` and says why in CHANGES.md.
func TestGoldenDigests(t *testing.T) {
	if *update {
		t.Skip("recording golden files")
	}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range files {
		have[strings.TrimSuffix(filepath.Base(f), ".txt")] = true
	}
	seen := map[string]bool{}
	for _, f := range Figures() {
		if seen[f.Name] {
			t.Errorf("figure %q appears twice in the table", f.Name)
		}
		seen[f.Name] = true
		if !have[f.Name] {
			t.Errorf("figure %q has no file in %s", f.Name, goldenDir)
		}
	}
	for name := range have {
		if !seen[name] {
			t.Errorf("%s holds %s.txt, which names no figure", goldenDir, name)
		}
	}
}

// checkGolden compares a figure's printed output with
// testdata/golden/<name>.txt byte for byte; -update writes that one
// file instead, so parallel tests never touch each other's.
func checkGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("%s differs from %s at %s", name, path, firstDiff(want, out))
	}
}

// firstDiff names the first line and column where got departs from
// want and shows both lines; a line past the end of either shows as "".
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	var w, g string
	if i < len(wl) {
		w = wl[i]
	}
	if i < len(gl) {
		g = gl[i]
	}
	col := 0
	for col < min(len(w), len(g)) && w[col] == g[col] {
		col++
	}
	return fmt.Sprintf("line %d, column %d:\n\twant %q\n\tgot  %q", i+1, col+1, w, g)
}
