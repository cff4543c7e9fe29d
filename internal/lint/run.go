package lint

import "slices"

// Analyzers returns every domain analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Nondeterminism, ErrCheck}
}

// Run executes the analyzers over the packages and returns their
// diagnostics sorted by position, including those suppressed by
// //lint:allow, which are marked Allowed. Type-check failures and
// malformed //lint:allow directives are reported once per package as
// diagnostics of the pseudo-checks "typecheck" and "directive".
func Run(loader *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	byFile := make(map[string]*Package)
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			diags = append(diags, Diagnostic{
				Pos:     terr.Fset.Position(terr.Pos),
				Check:   "typecheck",
				Message: terr.Msg,
			})
		}
		diags = append(diags, pkg.directiveProblems(known)...)
		for _, f := range pkg.Files {
			byFile[loader.Fset.Position(f.Pos()).Filename] = pkg
		}
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     loader.Fset,
			Module:   loader.Module,
			Pkgs:     pkgs,
			byFile:   byFile,
		}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}

	slices.SortFunc(diags, Diagnostic.compare)
	return diags
}
