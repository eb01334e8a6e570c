package analyzers

import (
	"fmt"
	"go/ast"

	"eventcap/internal/analysis"
	"eventcap/internal/analysis/cfg"
)

// LockbalanceMarker suppresses a lockbalance finding when it appears,
// with a reason, on the flagged line or the line above. The generic
// lint:justified marker is accepted too.
const LockbalanceMarker = "lockbalance:ok"

// Lockbalance checks that every sync.Mutex/RWMutex acquisition is
// released on every path out of the acquiring function — the contract
// behind the lock-guarded registries, the span tree and the pool
// bookkeeping. It applies to the concurrency hubs (internal/obs,
// internal/trace, internal/parallel; see the scope policy in For).
//
// The analysis is path-sensitive over the function's CFG: a mid-loop
// Unlock+return paired with a post-loop Unlock is accepted, while an
// early return that skips the Unlock is flagged at the Lock site.
// Deferred releases — `defer mu.Unlock()` or a deferred closure that
// unlocks — count on every subsequent exit. Lock and RLock are tracked
// as separate acquisitions per lock expression (spelled as a chain of
// identifiers and field selections; locks reached through indexing or
// function results are outside the analysis). Paths that die in an
// explicit panic(...) are not reported.
//
// A function that intentionally returns holding a lock (a locked
// accessor handing the critical section to its caller) documents it
// with // lockbalance:ok <reason> (or // lint:justified <reason>) on
// the Lock line or the line above.
var Lockbalance = &analysis.Analyzer{
	Name: "lockbalance",
	Doc: "sync.Mutex/RWMutex Lock/RLock must be Unlocked on every path out of " +
		"the acquiring function; // lockbalance:ok <reason> suppresses",
	Run: runLockbalance,
}

func runLockbalance(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, body := range funcBodies(file) {
			lockbalanceBody(pass, body)
		}
	}
	return nil
}

// lockOp classifies a call as a sync lock operation on a keyable lock
// expression. acquire is true for Lock/RLock; key identifies the lock
// (with a "#r" suffix separating the read side of an RWMutex).
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (key string, acquire, ok bool) {
	recv, name, isMethod := receiverOfCall(call)
	if !isMethod {
		return "", false, false
	}
	var read bool
	switch name {
	case "Lock", "Unlock":
	case "RLock", "RUnlock":
		read = true
	default:
		return "", false, false
	}
	if !pass.CalleeIn(call, "sync", name) {
		return "", false, false
	}
	key, keyable := lockKey(pass, recv)
	if !keyable {
		return "", false, false
	}
	if read {
		key += "#r"
	}
	return key, name == "Lock" || name == "RLock", true
}

// lockKey canonicalizes a lock expression: a chain of identifiers and
// field selections rooted at a resolvable object ("s.mu", "regMu",
// "clusterCache.mu"). Anything else (index expressions, call
// results) is not keyable.
func lockKey(pass *analysis.Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("%p", obj), true
	case *ast.SelectorExpr:
		base, ok := lockKey(pass, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	default:
		return "", false
	}
}

func lockbalanceBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Cheap pre-scan: skip the solve for lock-free functions.
	found := false
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, acquire, ok := lockOp(pass, call); ok && acquire {
				found = true
			}
		}
		return !found
	})
	if !found {
		return
	}

	g := pass.CFGOf(body)
	sol := cfg.Solve(g, cfg.Analysis[resFacts[string]]{
		Transfer: func(b *cfg.Block, in resFacts[string]) resFacts[string] {
			out := cloneFacts(in)
			for _, node := range b.Nodes {
				if d, ok := node.(*ast.DeferStmt); ok {
					for _, call := range deferredCalls(d) {
						applyLockOp(pass, call, out, true)
					}
					continue
				}
				inspectNoFuncLit(node, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						applyLockOp(pass, call, out, false)
					}
					return true
				})
			}
			return out
		},
		FlowEdge: func(b *cfg.Block, succ int, out resFacts[string]) resFacts[string] {
			if b.Panic {
				return nil
			}
			return out
		},
		Join:  joinFacts[string],
		Equal: equalFacts[string],
	})
	for _, st := range sol.In[g.Exit().Index] {
		if st.open && !justifiedFlow(pass, st.pos, LockbalanceMarker) {
			pass.Reportf(st.pos, "lock acquired here may still be held on some path out of the function (defer the Unlock or release before each return; // %s <reason> to suppress)", LockbalanceMarker)
		}
	}
}

// applyLockOp folds one call into the fact map. deferred releases count
// as releases at the registration point (they run at every subsequent
// exit); a deferred acquire would be bizarre and is ignored.
func applyLockOp(pass *analysis.Pass, call *ast.CallExpr, out resFacts[string], deferred bool) {
	key, acquire, ok := lockOp(pass, call)
	if !ok {
		return
	}
	if acquire {
		if deferred {
			return
		}
		out[key] = resState{open: true, pos: call.Pos()}
		return
	}
	st := out[key]
	st.open = false
	out[key] = st
}
