// Package analysis is a self-contained static-analysis framework for the
// repository's determinism and invariant lint suite (DESIGN.md §10).
//
// It mirrors the shape of golang.org/x/tools/go/analysis — an Analyzer
// holds a name, documentation and a Run function over a type-checked
// Pass — but is built entirely on the standard library (go/ast, go/types
// and export data produced by `go list -export`), because this module is
// deliberately dependency-free. Should the repo ever vendor x/tools, the
// analyzers port mechanically: only the Pass plumbing differs.
//
// Analyzers enforce conventions no compiler checks: byte-identical
// results for any -workers value, RNG streams drawn only from seeded
// rng.Split derivations, probabilities kept in [0,1], and float
// comparisons routed through exact sentinels or the numeric tolerance
// helpers. Each analyzer documents a justification-comment
// escape hatch; see the analyzers subpackage.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"eventcap/internal/analysis/cfg"
)

// Analyzer describes one static check. Scoping — which packages the
// check applies to — is driver policy (see analyzers.For), not a
// property of the analyzer itself, so tests can run any analyzer over
// any fixture.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output.
	// It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description printed by -list: the rule,
	// why it exists, and the justification comment that suppresses it.
	Doc string

	// Run executes the check over one type-checked package, reporting
	// findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass holds one type-checked package and the reporting sink for a
// single analyzer execution.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each finding. The driver fills it in; analyzers
	// should call Reportf instead for formatting convenience.
	Report func(Diagnostic)

	// lineComments caches, per file, the text of every comment keyed by
	// the line it starts on. Built lazily by Justified.
	lineComments map[*token.File]map[int]string

	// cfgs caches control-flow graphs per function body (CFGOf).
	cfgs map[*ast.BlockStmt]*cfg.Graph
}

// CFGOf returns the control-flow graph of body (a FuncDecl or FuncLit
// body), built lazily and cached for the lifetime of the Pass. This is
// the hook through which path-sensitive analyzers reach the dataflow
// layer (DESIGN.md §15).
func (p *Pass) CFGOf(body *ast.BlockStmt) *cfg.Graph {
	if g, ok := p.cfgs[body]; ok {
		return g
	}
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.BlockStmt]*cfg.Graph)
	}
	g := cfg.New(body)
	p.cfgs[body] = g
	return g
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a finding at pos with fmt.Sprintf formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Justified reports whether the finding at pos is suppressed by a
// justification comment containing marker (for example "floateq:ok") on
// the same line or on the line immediately above. The comment must
// carry text beyond the marker itself — a bare marker is not a
// justification, it is an evasion — except when the marker already
// embeds its reason ("prob-invariant" style markers pass a one-word
// rationale in surrounding prose, so any non-empty trailing text
// qualifies there too; we simply require at least one further word).
func (p *Pass) Justified(pos token.Pos, marker string) bool {
	if !pos.IsValid() {
		return false
	}
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	if p.lineComments == nil {
		p.lineComments = make(map[*token.File]map[int]string)
	}
	lines, ok := p.lineComments[tf]
	if !ok {
		lines = make(map[int]string)
		for _, f := range p.Files {
			if p.Fset.File(f.Pos()) != tf {
				continue
			}
			// A comment group justifies the line it ends on (trailing
			// comment) and the line immediately after (attached comment,
			// possibly spanning several lines).
			for _, cg := range f.Comments {
				var text string
				for _, c := range cg.List {
					text += " " + c.Text
				}
				end := p.Fset.Position(cg.End()).Line
				lines[end] += text
				lines[end+1] += text
			}
		}
		p.lineComments[tf] = lines
	}
	line := p.Fset.Position(pos).Line
	text, ok := lines[line]
	if !ok {
		return false
	}
	idx := strings.Index(text, marker)
	if idx < 0 {
		return false
	}
	rest := strings.TrimSpace(text[idx+len(marker):])
	// Marker plus at least one word of reason; a bare marker is an
	// evasion, not a justification.
	return rest != ""
}

// TypeOf returns the type of e, or nil when untyped (for robustness on
// partially checked fixtures).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// IsFloat reports whether t's underlying type is a floating-point basic
// type.
func IsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// CalleeIn resolves a call expression to a package-level function (or
// method value) object and reports whether it is the named function of
// a package whose import path has the given suffix. pathSuffix is
// matched against the full import path with a path-boundary check, so
// "math/rand" does not match "foo/math/rand2".
func (p *Pass) CalleeIn(call *ast.CallExpr, pathSuffix, name string) bool {
	obj := p.callee(call)
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathHasSuffix(obj.Pkg().Path(), pathSuffix)
}

// callee returns the types.Object for the function being called, or nil
// for dynamic calls and built-ins.
func (p *Pass) callee(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// PathHasSuffix reports whether import path has the given suffix on a
// path-segment boundary ("eventcap/internal/rng" ends with
// "internal/rng" but not with "ternal/rng").
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// SortDiagnostics orders findings by file, line and column for stable
// output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
