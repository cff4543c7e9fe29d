package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current serial reference output")

const goldenPath = "testdata/golden.json"

// goldenFigures renders each pinned figure through the printers
// cmd/cachepart uses, at the parameters the shape tests in this
// package use.
var goldenFigures = []struct {
	name   string
	render func(w *bytes.Buffer) error
}{
	{"fig9b", func(w *bytes.Buffer) error {
		panels, err := Fig9(figureParams())
		if err != nil {
			return err
		}
		for _, panel := range panels {
			PrintPairRows(w, "Figure 9 — "+panel.Label, panel.Rows)
		}
		return nil
	}},
	{"fig10", func(w *bytes.Buffer) error {
		rows, err := Fig10(figureParams())
		if err != nil {
			return err
		}
		PrintPairRows(w, "Figure 10", rows)
		return nil
	}},
	{"fig11", func(w *bytes.Buffer) error {
		p := figureParams()
		p.RowsAgg = 1 << 17
		row, err := Fig11Query(p, 1)
		if err != nil {
			return err
		}
		PrintPairRows(w, "Figure 11", []PairRow{row})
		return nil
	}},
	{"serve", func(w *bytes.Buffer) error {
		r, err := FigServeOpts(Fast(), serveTestOpts())
		if err != nil {
			return err
		}
		PrintServe(w, r)
		return nil
	}},
}

// TestGoldenDigests pins the serial reference model: the printed
// output of each figure must hash to the digest recorded in
// testdata/golden.json. The simulator is deterministic per seed, so
// any drift is a behaviour change; a PR that moves a digest
// regenerates the file with `go test ./internal/harness -update` and
// says why in CHANGES.md. The count check catches a missing or stale
// entry.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs in short mode")
	}
	for _, fig := range goldenFigures {
		var buf bytes.Buffer
		if err := fig.render(&buf); err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		checkGolden(t, fig.name, buf.Bytes())
	}
	if want, n := readGolden(t), len(goldenFigures)+len(figureDigests); len(want) != n {
		t.Errorf("%s holds %d digests, the tests render %d", goldenPath, len(want), n)
	}
}

// figureDigests are the entries the Test*Function tests in
// figures_test.go, TestFigOverloadAcceptance, TestFigAdaptAcceptance,
// TestFigChaosFunction and TestFigCoSchedule check, each from the run
// it already makes.
var figureDigests = []string{"fig1", "fig5", "fig6", "fig12", "overload", "adapt", "chaos", "cosched"}

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
