package lint

import (
	"go/ast"
	"go/constant"
)

// CUIDCheck enforces the scheduler's cache-usage contract: every job
// phase handed to the engine must carry an explicit cache-usage
// identifier. The CUID zero value (Sensitive, the full mask) is a safe
// runtime default, but a literal that omits the field is
// indistinguishable from a phase whose author never classified the
// operator — exactly the silent default that breaks the Section V-C
// apportioning logic. Keyed Phase literals must therefore name the
// CUID field, even when setting it to the default class.
var CUIDCheck = &Analyzer{
	Name: "cuid",
	Doc:  "job-phase literals must set the cache-usage identifier explicitly",
	Run:  runCUIDCheck,
}

// phaseType is the job-phase struct, relative to the module path,
// whose keyed literals must set cuidField.
const (
	phaseType = "/internal/engine.Phase"
	cuidField = "CUID"
)

func runCUIDCheck(p *Pass) {
	for _, pkg := range p.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := info.Types[lit]
				if !ok || qualifiedName(tv.Type) != p.Module+phaseType {
					return true
				}
				var name string
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						// Positional literals must populate every field,
						// including the CUID, to compile.
						return true
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if key.Name == cuidField {
						return true
					}
					if key.Name == "Name" {
						if v, ok := info.Types[kv.Value]; ok && v.Value != nil && v.Value.Kind() == constant.String {
							name = constant.StringVal(v.Value)
						}
					}
				}
				if name != "" {
					p.Reportf(lit.Pos(), "job phase %q lacks an explicit %s; annotate the cache-usage class instead of defaulting silently (PAPER.md §V-C)", name, cuidField)
				} else {
					p.Reportf(lit.Pos(), "job-phase literal lacks an explicit %s; annotate the cache-usage class instead of defaulting silently (PAPER.md §V-C)", cuidField)
				}
				return true
			})
		}
	}
}
