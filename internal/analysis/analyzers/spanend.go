package analyzers

import (
	"go/ast"
	"go/types"

	"eventcap/internal/analysis"
	"eventcap/internal/analysis/cfg"
)

// SpanendMarker suppresses a spanend finding when it appears, with a
// reason, on the flagged line or the line above. The generic
// lint:justified marker is accepted too.
const SpanendMarker = "spanend:ok"

// Spanend is the static twin of the span.begun/span.ended runtime leak
// metrics (DESIGN.md §14): every phase span created with obs.BeginSpan,
// Span.Child or Span.Fork and kept in a local variable must reach End
// on every path out of the function — via an explicit call, a defer, or
// a deferred closure. A span that escapes the function (returned,
// stored, or passed to another call, as when a span is handed to a
// Config) transfers End responsibility with it and is not checked
// here.
//
// The analysis is path-sensitive: it solves a forward dataflow problem
// over the function's CFG (internal/analysis/cfg), so an End that only
// happens on the happy path is flagged at the Begin site while
// branch-balanced code is accepted. Paths that die in an explicit
// panic(...) are not reported — the process is tearing down and the
// runtime leak counter is moot — and a creation whose result is
// discarded outright is flagged unconditionally.
//
// Suppress with // spanend:ok <reason> (or // lint:justified <reason>)
// on the creation line or the line above.
var Spanend = &analysis.Analyzer{
	Name: "spanend",
	Doc: "obs spans (BeginSpan/Child/Fork) must be Ended on every path out of " +
		"the creating function; // spanend:ok <reason> suppresses",
	Run: runSpanend,
}

func runSpanend(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, body := range funcBodies(file) {
			spanendBody(pass, body)
		}
	}
	return nil
}

// isSpanCreation reports whether call creates an obs span.
func isSpanCreation(pass *analysis.Pass, call *ast.CallExpr) bool {
	return pass.CalleeIn(call, "internal/obs", "BeginSpan") ||
		pass.CalleeIn(call, "internal/obs", "Child") ||
		pass.CalleeIn(call, "internal/obs", "Fork")
}

// isSpanEnd returns the tracked object whose span call ends, if any.
func isSpanEnd(pass *analysis.Pass, call *ast.CallExpr, tracked map[types.Object]bool) types.Object {
	if !pass.CalleeIn(call, "internal/obs", "End") {
		return nil
	}
	recv, _, ok := receiverOfCall(call)
	if !ok {
		return nil
	}
	obj := identObjOf(pass, recv)
	if obj == nil || !tracked[obj] {
		return nil
	}
	return obj
}

func spanendBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass 1: candidate spans — local variables bound directly from a
	// creation call — plus creations whose result is dropped on the
	// floor, which can never be Ended and are reported immediately.
	candidates := make(map[types.Object]bool)
	inspectNoFuncLit(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isSpanCreation(pass, call) {
				if !justifiedFlow(pass, n.Pos(), SpanendMarker) {
					pass.Reportf(n.Pos(), "span created and discarded: nothing can End it (assign it and End on every path, or // %s <reason>)", SpanendMarker)
				}
			}
		case *ast.AssignStmt:
			for _, obj := range spanCreationTargets(pass, n) {
				candidates[obj] = true
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) == 1 {
				if call, ok := ast.Unparen(n.Values[0]).(*ast.CallExpr); ok && isSpanCreation(pass, call) {
					if obj := pass.TypesInfo.Defs[n.Names[0]]; obj != nil {
						candidates[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return
	}

	// Pass 2: escapes. A span passed onward (call argument, return,
	// store, alias) hands End responsibility to the receiver; only
	// spans that stay method-call-local are checked.
	escaped := make(map[types.Object]bool)
	classifyUses(pass, body, func(o types.Object) bool { return candidates[o] },
		func(obj types.Object, _ *ast.Ident, class useClass) {
			if class != useSanctioned {
				escaped[obj] = true
			}
		})
	tracked := make(map[types.Object]bool)
	for obj := range candidates {
		if !escaped[obj] {
			tracked[obj] = true
		}
	}
	if len(tracked) == 0 {
		return
	}

	// Pass 3: the dataflow solve.
	g := pass.CFGOf(body)
	sol := cfg.Solve(g, cfg.Analysis[resFacts[types.Object]]{
		Transfer: func(b *cfg.Block, in resFacts[types.Object]) resFacts[types.Object] {
			out := cloneFacts(in)
			for _, node := range b.Nodes {
				spanendTransfer(pass, node, tracked, out)
			}
			return out
		},
		FlowEdge: func(b *cfg.Block, succ int, out resFacts[types.Object]) resFacts[types.Object] {
			if b.Panic {
				return nil
			}
			return refineNilEdges(pass, b, succ, out)
		},
		Join:  joinFacts[types.Object],
		Equal: equalFacts[types.Object],
	})
	for obj, st := range sol.In[g.Exit().Index] {
		if st.open && !justifiedFlow(pass, st.pos, SpanendMarker) {
			pass.Reportf(st.pos, "span %q begun here may not be Ended on every path out of the function (End it before each return, or defer; // %s <reason> to suppress)", obj.Name(), SpanendMarker)
		}
	}
}

// spanCreationTargets returns the objects an assignment binds directly
// to a span-creation call.
func spanCreationTargets(pass *analysis.Pass, n *ast.AssignStmt) []types.Object {
	if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok || !isSpanCreation(pass, call) {
		return nil
	}
	obj := identObjOf(pass, n.Lhs[0])
	if obj == nil {
		return nil
	}
	return []types.Object{obj}
}

// spanendTransfer applies one CFG node to the fact map.
func spanendTransfer(pass *analysis.Pass, node ast.Node, tracked map[types.Object]bool, out resFacts[types.Object]) {
	switch n := node.(type) {
	case *ast.DeferStmt:
		for _, call := range deferredCalls(n) {
			if obj := isSpanEnd(pass, call, tracked); obj != nil {
				st := out[obj]
				st.open = false
				out[obj] = st
			}
		}
	case *ast.AssignStmt:
		for _, obj := range spanCreationTargets(pass, n) {
			if tracked[obj] {
				out[obj] = resState{open: true, pos: n.Pos()}
			}
		}
		// An End call can also hide in the RHS; fall through to the scan.
		spanendScanEnds(pass, n, tracked, out)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 1 || len(vs.Names) != 1 {
					continue
				}
				call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				if !ok || !isSpanCreation(pass, call) {
					continue
				}
				if obj := pass.TypesInfo.Defs[vs.Names[0]]; obj != nil && tracked[obj] {
					out[obj] = resState{open: true, pos: vs.Pos()}
				}
			}
		}
		spanendScanEnds(pass, n, tracked, out)
	default:
		spanendScanEnds(pass, node, tracked, out)
	}
}

func spanendScanEnds(pass *analysis.Pass, node ast.Node, tracked map[types.Object]bool, out resFacts[types.Object]) {
	inspectNoFuncLit(node, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if obj := isSpanEnd(pass, call, tracked); obj != nil {
				st := out[obj]
				st.open = false
				out[obj] = st
			}
		}
		return true
	})
}

// refineNilEdges drops the open state of tracked objects that are
// certainly nil along the chosen branch edge (`if sp == nil` true edge,
// `if sp != nil` false edge): a nil span/file was never acquired on
// this path, so requiring a release would be a false positive.
func refineNilEdges(pass *analysis.Pass, b *cfg.Block, succ int, out resFacts[types.Object]) resFacts[types.Object] {
	if b.Cond == nil || len(b.Succs) != 2 {
		return out
	}
	ids := mustNilIdents(b.Cond, succ == 0)
	if len(ids) == 0 {
		return out
	}
	refined := out
	copied := false
	for _, id := range ids {
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			continue
		}
		if st, ok := refined[obj]; ok && st.open {
			if !copied {
				refined = cloneFacts(refined)
				copied = true
			}
			st.open = false
			refined[obj] = st
		}
	}
	return refined
}
