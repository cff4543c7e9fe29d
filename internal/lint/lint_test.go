package lint

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The loader type-checks through the source importer, which parses the
// standard library from source; one loader is shared across tests so
// that work happens once.
var (
	loaderOnce sync.Once
	testloader *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testloader, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("loading module: %v", loaderErr)
	}
	return testloader
}

// wantEntry is one "// want" expectation parsed from a fixture.
type wantEntry struct {
	file    string
	line    int
	substr  string
	matched bool
}

// parseWants extracts `// want "substring"` expectations from the
// fixture sources. A want comment trailing a statement anchors to its
// own line; a want comment alone on a line anchors to the line above
// (for multi-line constructs and lines that already carry a comment).
func parseWants(t *testing.T, loader *Loader, pkg *Package) []*wantEntry {
	t.Helper()
	var wants []*wantEntry
	for _, f := range pkg.Files {
		name := loader.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			lineNo := i + 1
			if strings.HasPrefix(strings.TrimSpace(line), "// want ") {
				lineNo = i
			}
			for {
				rest = strings.TrimSpace(rest)
				q, err := strconv.QuotedPrefix(rest)
				if err != nil {
					break
				}
				s, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s", name, i+1, q)
				}
				wants = append(wants, &wantEntry{file: name, line: lineNo, substr: s})
				rest = rest[len(q):]
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want expectations", pkg.Path)
	}
	return wants
}

// runGolden lints one testdata fixture with the given analyzers,
// compares the diagnostics against the fixture's want comments and
// returns the findings //lint:allow suppressed, which want comments do
// not name.
func runGolden(t *testing.T, fixture string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	loader := testLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("internal/lint/testdata/src", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture does not type-check: %v", terr)
	}
	wants := parseWants(t, loader, pkg)
	var allowed []Diagnostic
	for _, d := range Run(loader, []*Package{pkg}, analyzers) {
		if d.Allowed {
			allowed = append(allowed, d)
			continue
		}
		rendered := "[" + d.Check + "] " + d.Message
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(rendered, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic containing %q", w.file, w.line, w.substr)
		}
	}
	return allowed
}

// TestNondeterminismGolden also pins the escape hatch's one home: in
// nondetfix every //lint:allow nondet stays a live finding, and in the
// main-package fixture the allowed line comes back from Run marked
// Allowed.
func TestNondeterminismGolden(t *testing.T) {
	if allowed := runGolden(t, "nondetfix", []*Analyzer{Nondeterminism}); len(allowed) != 0 {
		t.Errorf("allowed findings %v outside a main package, want none", allowed)
	}
	allowed := runGolden(t, "nondetmain", []*Analyzer{Nondeterminism})
	if len(allowed) != 1 || allowed[0].Pos.Line != 13 || !strings.Contains(allowed[0].Message, "time.Now") {
		t.Errorf("allowed findings %v, want time.Now on nondetmain/main.go:13", allowed)
	}
}

// TestErrCheckGolden also pins the allowed-findings contract: the
// fixture's one //lint:allow line comes back from Run, marked Allowed.
func TestErrCheckGolden(t *testing.T) {
	allowed := runGolden(t, "errfix", []*Analyzer{ErrCheck})
	if len(allowed) != 1 || allowed[0].Pos.Line != 34 || !strings.Contains(allowed[0].Message, "MoveTask") {
		t.Errorf("allowed findings %v, want the MoveTask discard on errfix.go:34", allowed)
	}
}

// TestAnalyzersList pins the suite: the two checks cmd/cachelint
// runs, in order, each with a doc line and an entry point.
func TestAnalyzersList(t *testing.T) {
	want := []string{"nondet", "errcheck"}
	all := Analyzers()
	if len(all) != len(want) {
		t.Fatalf("%d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %d = %q (doc %q, Run set %v), want %q with a doc and an entry point",
				i, a.Name, a.Doc, a.Run != nil, want[i])
		}
	}
}

func TestDirectiveValidationGolden(t *testing.T) {
	// Directive problems are emitted by Run itself, before any
	// analyzer; an empty analyzer list isolates them.
	runGolden(t, "directivefix", nil)
}

// TestRepoIsClean runs every analyzer over the whole module and
// requires zero diagnostics beyond allowed ones — the same gate
// cmd/cachelint enforces in scripts/check.sh.
func TestRepoIsClean(t *testing.T) {
	loader := testLoader(t)
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, d := range Run(loader, pkgs, Analyzers()) {
		if !d.Allowed {
			t.Errorf("%s", d)
		}
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	loader := testLoader(t)
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no packages found")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand returned testdata directory %s", d)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "nondet", Message: "msg"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "a/b.go:3:7: [nondet] msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
