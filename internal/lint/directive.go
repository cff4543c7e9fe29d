package lint

import (
	"go/token"
	"strings"
)

// directivePrefix introduces an allow directive:
//
//	//lint:allow <check> <reason>
//
// It suppresses diagnostics of the named check (or of every check,
// with "all") on its own line and on the line directly below, so it
// can trail the flagged statement or sit on its own line above it.
const directivePrefix = "//lint:allow"

// directive is one parsed //lint:allow comment.
type directive struct {
	check  string
	reason string
	pos    token.Position
}

// collectDirectives scans every comment of the package once, indexing
// directives by file and line and keeping a flat in-source-order list
// for validation.
func (p *Package) collectDirectives(fset *token.FileSet) {
	p.directives = make(map[string]map[int][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d := directive{pos: pos}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					d.check = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]directive)
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
				p.allDirectives = append(p.allDirectives, d)
			}
		}
	}
}

// allowed reports whether a diagnostic of the given check at pos is
// suppressed by a well-formed directive on the same line or the line
// above.
func (p *Package) allowed(pos token.Position, check string) bool {
	byLine := p.directives[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.reason == "" {
				continue // malformed; runner reports it, never suppresses
			}
			if d.check == check || d.check == "all" {
				return true
			}
		}
	}
	return false
}

// directiveProblems validates every directive of the package against
// the known check names and returns diagnostics for malformed or
// unknown ones.
func (p *Package) directiveProblems(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range p.allDirectives {
		var msg string
		switch {
		case d.check == "" || d.reason == "":
			msg = "malformed directive: want //lint:allow <check> <reason>"
		case d.check != "all" && !known[d.check]:
			msg = "directive allows unknown check \"" + d.check + "\""
		default:
			continue
		}
		out = append(out, Diagnostic{Pos: d.pos, Check: "directive", Message: msg})
	}
	return out
}
