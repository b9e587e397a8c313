package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective marks a function whose body (and transitive
// in-program callees) must be proven free of steady-state heap
// allocation. It goes on the doc comment:
//
//	//qtenon:hotpath
//	func (s *State) ApplyRZ(q int, theta float64) { … }
//
// Anything after the directive on the same line is a free-form note.
const hotpathDirective = "//qtenon:hotpath"

// hotpathAnnotated reports whether fd carries the //qtenon:hotpath
// directive in its doc comment.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// HotPath proves //qtenon:hotpath-annotated functions heap-allocation-
// free, transitively through the allocation dimension of the v3
// interprocedural summaries (DESIGN.md §14.1). Inside an annotated body
// it flags every allocation witness: make/new, growing append, map
// stores and literals, slice/map composite literals, address-taken
// composites, escaping closures, go statements, string↔[]byte
// conversions, string concatenation, interface boxing at assignments /
// call arguments / returns, and calls to callees without an alloc-free
// summary (unknown external callees are assumed to allocate — the
// inverse of the aliasing dimensions' optimistic stance). Cold-path
// shapes — nil/len/cap-guarded blocks, build-gated constant blocks, the
// code after a cap-guarded early return, panic arguments, error-return
// operands, and the field-rooted self-append arena idiom — are exempt,
// because "allocation-free" here means steady-state: scratch may grow
// once and be recycled forever.
var HotPath = &Analyzer{
	Name:   "hotpath",
	Doc:    "prove //qtenon:hotpath functions transitively heap-allocation-free",
	Design: "§14.1",
	Run:    runHotPath,
}

func runHotPath(pass *Pass) error {
	if pass.Pkg == nil || !strings.HasPrefix(pass.Pkg.Path(), "qtenon") {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hotpathAnnotated(fd) {
				continue
			}
			if fd.Body == nil {
				pass.Reportf(fd.Name.Pos(), "//qtenon:hotpath on a bodyless declaration proves nothing")
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := pass.Prog.Info(obj)
			if fi == nil {
				continue
			}
			name := fd.Name.Name
			scanAllocSites(pass.Prog, fi, func(pos token.Pos, msg string) bool {
				pass.Reportf(pos, "hot path %s must stay allocation-free: %s", name, msg)
				return true // report every witness, not just the first
			})
		}
	}
	return nil
}
