package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path
	Files []*ast.File

	Types *types.Package
	Info  *types.Info

	// TypeErrors holds soft type-check errors; a package with errors
	// is still analysed best-effort, but the runner surfaces them.
	TypeErrors []types.Error

	// directives maps filename -> line -> allow directives on that
	// line; allDirectives keeps them in source order for validation.
	directives    map[string]map[int][]directive
	allDirectives []directive
}

// Loader parses and type-checks packages of one module. Imports inside
// the module resolve recursively through the loader itself; standard
// library imports resolve through go/importer's source importer, so
// the whole pipeline works offline with no compiled export data.
type Loader struct {
	Fset   *token.FileSet
	Module string
	Root   string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at dir (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Fset:    fset,
		Module:  module,
		Root:    abs,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %v (run from inside the module)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadDir loads the package in the given directory (absolute or
// relative to the module root).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.Root, dir)
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.Module)
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// load type-checks the package with the given module-internal import
// path, memoized.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.Root
	if rel, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		dir = filepath.Join(l.Root, filepath.FromSlash(rel))
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	pkg := &Package{
		Path:  path,
		Files: files,
		Info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		},
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if terr, ok := err.(types.Error); ok && !terr.Soft {
				pkg.TypeErrors = append(pkg.TypeErrors, terr)
			}
		},
	}
	// Type-check best-effort: Check returns an error on the first hard
	// failure, but Info is still populated for what did resolve.
	tpkg, _ := conf.Check(path, l.Fset, files, pkg.Info)
	pkg.Types = tpkg
	pkg.collectDirectives(l.Fset)
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if ignoredByBuildTag(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// ignoredByBuildTag reports whether a file opts out of the build with
// a //go:build ignore constraint.
func ignoredByBuildTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == "//go:build ignore" {
				return true
			}
		}
	}
	return false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// through the loader, everything else through the source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: package %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Expand resolves package patterns ("./...", "dir/...", plain
// directories) into the list of module directories holding Go files,
// sorted. Directories named testdata, vendor, or starting with "." or
// "_" are skipped, matching the go tool.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = l.Root
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.Root, base)
		}
		if !recursive {
			seen[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p != base && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				seen[filepath.Dir(p)] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
