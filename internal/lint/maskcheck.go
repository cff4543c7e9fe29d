package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/bits"
	"strconv"
	"strings"
)

// MaskCheck validates CAT capacity masks that are decidable at compile
// time. Real hardware rejects empty and non-contiguous masks
// (PAPER.md Section V-A); the runtime model returns errors for them,
// but a constant bad mask is a bug that should never survive review.
// Two shapes are checked module-wide:
//
//   - every constant expression of the cat.WayMask type (conversions,
//     call arguments, composite-literal fields);
//   - constant schemata strings ("L3:0=<hexmask>") passed to
//     parameters named "schemata" of the cat/resctrl packages.
var MaskCheck = &Analyzer{
	Name: "maskcheck",
	Doc:  "constant CAT capacity masks must be non-empty and contiguous",
	Run:  runMaskCheck,
}

// The capacity-mask type and the packages whose schemata parameters
// are checked, relative to the module path.
const (
	maskType   = "/internal/cat.WayMask"
	catPkg     = "/internal/cat"
	resctrlPkg = "/internal/resctrl"
)

func runMaskCheck(p *Pass) {
	for _, pkg := range p.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			tolerant := zeroTolerantExprs(f)
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkSchemataArgs(p, info, call)
				}
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				tv, ok := info.Types[e]
				if !ok || tv.Value == nil || qualifiedName(tv.Type) != p.Module+maskType {
					return true
				}
				if msg := maskProblem(tv.Value, tolerant[e]); msg != "" {
					p.Reportf(e.Pos(), "%s", msg)
				}
				// The operand of a flagged conversion carries the same
				// constant; do not report it twice.
				return false
			})
		}
	}
}

// zeroTolerantExprs marks the expressions where a zero mask is a
// legitimate sentinel rather than a mask being programmed: operands
// of comparisons and returned values. Non-contiguous constants stay
// illegal even there.
func zeroTolerantExprs(f *ast.File) map[ast.Expr]bool {
	out := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				out[ast.Unparen(n.X)] = true
				out[ast.Unparen(n.Y)] = true
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				out[ast.Unparen(r)] = true
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				out[ast.Unparen(e)] = true
			}
		}
		return true
	})
	return out
}

// maskProblem validates a constant capacity mask, returning a
// diagnostic message or "". zeroOK marks sentinel positions where an
// empty mask is tolerated.
func maskProblem(v constant.Value, zeroOK bool) string {
	u, exact := constant.Uint64Val(constant.ToInt(v))
	if !exact {
		return fmt.Sprintf("capacity mask %v is not an unsigned integer", v)
	}
	if u == 0 && zeroOK {
		return ""
	}
	return maskBitsProblem(u)
}

// maskBitsProblem validates a mask's bit pattern.
func maskBitsProblem(u uint64) string {
	if u == 0 {
		return "empty capacity mask 0x0: CAT requires at least one way"
	}
	if u > 1<<32-1 {
		return fmt.Sprintf("capacity mask %#x exceeds the 32-way register width", u)
	}
	run := u >> bits.TrailingZeros64(u)
	if run&(run+1) != 0 {
		return fmt.Sprintf("non-contiguous capacity mask %#x: CAT requires one contiguous run of ways", u)
	}
	return ""
}

// checkSchemataArgs validates constant strings passed to "schemata"
// parameters of the cat and resctrl packages.
func checkSchemataArgs(p *Pass, info *types.Info, call *ast.CallExpr) {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok || !underModule(p.Module, pkgPathOf(fn), catPkg, resctrlPkg) {
		return
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if !strings.Contains(strings.ToLower(sig.Params().At(i).Name()), "schemata") {
			continue
		}
		arg := call.Args[i]
		tv, ok := info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		if msg := schemataProblem(constant.StringVal(tv.Value)); msg != "" {
			p.Reportf(arg.Pos(), "%s", msg)
		}
	}
}

// schemataProblem statically validates a kernel-format schemata line,
// mirroring resctrl.ParseSchemata for cache id 0.
func schemataProblem(s string) string {
	rest, ok := strings.CutPrefix(strings.TrimSpace(s), "L3:")
	if !ok {
		return fmt.Sprintf("schemata %q must start with \"L3:\"", s)
	}
	for _, clause := range strings.FieldsFunc(rest, func(r rune) bool { return r == ';' || r == ' ' }) {
		id, val, ok := strings.Cut(clause, "=")
		if !ok || strings.TrimSpace(id) != "0" {
			continue
		}
		u, err := strconv.ParseUint(strings.TrimSpace(val), 16, 64)
		if err != nil {
			return fmt.Sprintf("schemata %q has a malformed hex mask", s)
		}
		return maskBitsProblem(u)
	}
	return fmt.Sprintf("schemata %q has no clause for cache id 0", s)
}
