package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current serial reference output")

const goldenPath = "testdata/golden.json"

// TestGoldenDigests keeps testdata/golden.json in step with the
// figure table: exactly one digest per entry of Figures. Each digest
// pins what the CLI prints for that figure; the test that already runs
// the figure checks it with checkGolden. The simulator is
// deterministic per seed, so any drift is a behaviour change; a PR
// that moves a digest regenerates the file with
// `go test ./internal/harness -update` and says why in CHANGES.md.
func TestGoldenDigests(t *testing.T) {
	if *update {
		t.Skip("recording digests")
	}
	want := readGolden(t)
	seen := map[string]bool{}
	for _, f := range Figures() {
		if seen[f.Name] {
			t.Errorf("figure %q appears twice in the table", f.Name)
		}
		seen[f.Name] = true
		if _, ok := want[f.Name]; !ok {
			t.Errorf("figure %q has no digest in %s", f.Name, goldenPath)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s holds digest %q, which names no figure", goldenPath, name)
		}
	}
}

// readGolden loads testdata/golden.json; under -update a missing file
// reads as empty.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *update {
		return want
	}
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return want
}

// checkGolden compares the digest of a figure's printed output with
// its entry in testdata/golden.json; -update records it instead and
// keeps the other entries.
func checkGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if testing.Verbose() {
		t.Logf("%s:\n%s", name, out)
	}
	want := readGolden(t)
	if *update {
		want[name] = got
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != want[name] {
		t.Errorf("%s digest = %s, want %s (rerun with -v to see the output)", name, got, want[name])
	}
}
