package cachepart

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoExportedPackageVars parses the module's non-test Go files and
// fails on any exported package-level var: the paper's sweep values
// are constants or functions returning fresh slices, so no importer
// can reassign them under a concurrent run. Err* sentinels are
// allowed. bench/ is a module of its own, testdata/ holds fixtures and
// internal/lint's analyzers are values by the go/analysis convention.
func TestNoExportedPackageVars(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path != "." && strings.HasPrefix(d.Name(), "."),
				d.Name() == "testdata",
				path == "bench",
				path == filepath.Join("internal", "lint"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.IsExported() && !strings.HasPrefix(name.Name, "Err") {
						found = append(found, path+": "+name.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > 0 {
		t.Errorf("%d exported package-level vars; make them constants or functions:\n%s",
			len(found), strings.Join(found, "\n"))
	}
}
