package analyzers

import (
	"go/ast"
	"go/types"

	"eventcap/internal/analysis"
	"eventcap/internal/analysis/cfg"
)

// ClosecheckMarker suppresses a closecheck finding when it appears,
// with a reason, on the flagged line or the line above. The generic
// lint:justified marker is accepted too.
const ClosecheckMarker = "closecheck:ok"

// Closecheck enforces the trace-output lifecycle (DESIGN.md §11) in the
// packages that create trace streams and files: cmd/* and
// internal/trace (see the scope policy in For). Two rules:
//
//  1. Every os.File (Create/Open/OpenFile/CreateTemp), trace.Writer
//     (NewWriter) and trace.File (Create) bound to a local variable
//     must reach Close on every path out of the creating function — explicit, deferred, or inside
//     a deferred closure. The analysis is path-sensitive over the
//     function's CFG and understands the idioms around acquisition:
//     on edges where the creation's companion error is known non-nil,
//     or the resource itself is known nil, there is nothing to close.
//     Passing the resource as a call argument does NOT transfer Close
//     responsibility (writers are threaded through configs while the
//     creator still closes them); returning or storing it does.
//
//  2. trace.Writer.Close and trace.File.Close results must be
//     consumed. Writer write errors are sticky and only surface at
//     Close (a File's Close closes its Writer), so a bare `w.Close()`
//     statement (or a bare `defer w.Close()`) silently discards the
//     one signal that the trace on disk is incomplete. Assign it,
//     check it, return it — or make the discard explicit and reviewed
//     with `_ = w.Close()`. os.File is exempt from this second rule:
//     bare closes of read-only or already-failed files are idiomatic.
//
// Paths that die in an explicit panic(...) are not reported. Suppress
// with // closecheck:ok <reason> (or // lint:justified <reason>) on the
// flagged line or the line above — the canonical exception is a true
// ownership handoff to a registry or background goroutine.
var Closecheck = &analysis.Analyzer{
	Name: "closecheck",
	Doc: "os.File/trace.Writer/trace.File created in cmd and trace paths must reach Close on " +
		"every path, and the sticky error of trace.Writer.Close and trace.File.Close must be consumed; " +
		"// closecheck:ok <reason> suppresses",
	Run: runClosecheck,
}

func runClosecheck(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, body := range funcBodies(file) {
			closecheckBody(pass, body)
		}
		closecheckStickyErrors(pass, file)
	}
	return nil
}

// isCloseableCreation reports whether call creates a resource this
// analyzer tracks.
func isCloseableCreation(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, name := range [...]string{"Create", "Open", "OpenFile", "CreateTemp"} {
		if pass.CalleeIn(call, "os", name) {
			return true
		}
	}
	return pass.CalleeIn(call, "internal/trace", "NewWriter") || pass.CalleeIn(call, "internal/trace", "Create")
}

// closeCallOn returns the tracked object a Close call releases, if any.
func closeCallOn(pass *analysis.Pass, call *ast.CallExpr, tracked map[types.Object]bool) types.Object {
	recv, name, ok := receiverOfCall(call)
	if !ok || name != "Close" {
		return nil
	}
	obj := identObjOf(pass, recv)
	if obj == nil || !tracked[obj] {
		return nil
	}
	return obj
}

// closeableTargets returns (resource, companion error) objects for an
// assignment that binds a creation call: `f, err := os.Create(p)` or
// `w := trace.NewWriter(dst)`.
func closeableTargets(pass *analysis.Pass, n *ast.AssignStmt) (res, errObj types.Object) {
	if len(n.Rhs) != 1 {
		return nil, nil
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok || !isCloseableCreation(pass, call) {
		return nil, nil
	}
	if len(n.Lhs) == 0 {
		return nil, nil
	}
	res = identObjOf(pass, n.Lhs[0])
	if len(n.Lhs) == 2 {
		errObj = identObjOf(pass, n.Lhs[1])
	}
	return res, errObj
}

func closecheckBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass 1: candidates.
	candidates := make(map[types.Object]bool)
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if a, ok := n.(*ast.AssignStmt); ok {
			if res, _ := closeableTargets(pass, a); res != nil {
				candidates[res] = true
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return
	}

	// Pass 2: escapes. Unlike spanend, a plain call argument keeps the
	// creator responsible for Close; only returning or storing the
	// resource moves ownership out of reach.
	escaped := make(map[types.Object]bool)
	classifyUses(pass, body, func(o types.Object) bool { return candidates[o] },
		func(obj types.Object, _ *ast.Ident, class useClass) {
			if class == useEscape {
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
				closecheckTransfer(pass, node, tracked, out)
			}
			return out
		},
		FlowEdge: func(b *cfg.Block, succ int, out resFacts[types.Object]) resFacts[types.Object] {
			if b.Panic {
				return nil
			}
			out = refineNilEdges(pass, b, succ, out)
			return refineErrEdges(pass, b, succ, out)
		},
		Join:  joinFacts[types.Object],
		Equal: equalFacts[types.Object],
	})
	for obj, st := range sol.In[g.Exit().Index] {
		if st.open && !justifiedFlow(pass, st.pos, ClosecheckMarker) {
			pass.Reportf(st.pos, "%q created here may not be Closed on every path out of the function (close it before each return, or defer; // %s <reason> to suppress)", obj.Name(), ClosecheckMarker)
		}
	}
}

func closecheckTransfer(pass *analysis.Pass, node ast.Node, tracked map[types.Object]bool, out resFacts[types.Object]) {
	switch n := node.(type) {
	case *ast.DeferStmt:
		for _, call := range deferredCalls(n) {
			if obj := closeCallOn(pass, call, tracked); obj != nil {
				st := out[obj]
				st.open = false
				out[obj] = st
			}
		}
	case *ast.AssignStmt:
		// Reassigning a companion error variable to anything else severs
		// its link to the resource: a later `if err != nil` no longer
		// says anything about whether the creation succeeded.
		res, errObj := closeableTargets(pass, n)
		for _, l := range n.Lhs {
			assigned := identObjOf(pass, l)
			if assigned == nil || assigned == errObj {
				continue
			}
			for k, st := range out {
				if st.errObj == assigned {
					st.errObj = nil
					out[k] = st
				}
			}
		}
		if res != nil && tracked[res] {
			out[res] = resState{open: true, pos: n.Pos(), errObj: errObj}
		}
		closecheckScanCloses(pass, n, tracked, out)
	default:
		closecheckScanCloses(pass, node, tracked, out)
	}
}

func closecheckScanCloses(pass *analysis.Pass, node ast.Node, tracked map[types.Object]bool, out resFacts[types.Object]) {
	inspectNoFuncLit(node, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if obj := closeCallOn(pass, call, tracked); obj != nil {
				st := out[obj]
				st.open = false
				out[obj] = st
			}
		}
		return true
	})
}

// refineErrEdges drops the open state of resources whose companion
// error is certainly non-nil along the edge: the creation failed, so
// there is nothing to close on this path.
func refineErrEdges(pass *analysis.Pass, b *cfg.Block, succ int, out resFacts[types.Object]) resFacts[types.Object] {
	if b.Cond == nil || len(b.Succs) != 2 {
		return out
	}
	ids := mustNonNilIdents(b.Cond, succ == 0)
	if len(ids) == 0 {
		return out
	}
	refined := out
	copied := false
	for _, id := range ids {
		errObj := pass.TypesInfo.Uses[id]
		if errObj == nil {
			continue
		}
		for k, st := range refined {
			if st.errObj == errObj && st.open {
				if !copied {
					refined = cloneFacts(refined)
					copied = true
				}
				st.open = false
				refined[k] = st
			}
		}
	}
	return refined
}

// closecheckStickyErrors is the flow-insensitive half: every
// trace.Writer.Close or trace.File.Close whose result is dropped by a
// bare statement or a bare defer, anywhere in the file, tracked
// variable or not.
func closecheckStickyErrors(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			c, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			call = c
		case *ast.DeferStmt:
			if _, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				return true // deferred closures are walked as statements
			}
			call = n.Call
		default:
			return true
		}
		if !isWriterClose(pass, call) {
			return true
		}
		if !justifiedFlow(pass, call.Pos(), ClosecheckMarker) {
			pass.Reportf(call.Pos(), "trace Close error discarded: write errors are sticky and only surface at Close (check it, or make the discard explicit with _ =; // %s <reason> to suppress)", ClosecheckMarker)
		}
		return true
	})
}

// isWriterClose reports whether call is Close on a *trace.Writer or a
// *trace.File.
func isWriterClose(pass *analysis.Pass, call *ast.CallExpr) bool {
	recv, name, ok := receiverOfCall(call)
	if !ok || name != "Close" {
		return false
	}
	t := pass.TypeOf(recv)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name = named.Obj().Name()
	return (name == "Writer" || name == "File") &&
		analysis.PathHasSuffix(named.Obj().Pkg().Path(), "internal/trace")
}
