package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as the body of a single function declared in a
// throwaway package and returns its CFG. Graphs are purely syntactic,
// so no type checking is involved.
func build(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
			return New(fn.Body)
		}
	}
	t.Fatal("no function in fixture")
	return nil
}

// check pins the exact block/edge structure of the graph built from src
// against want (the Graph.String dump format: "index:kind[nodes] ->
// succs", "!" marking panic blocks).
func check(t *testing.T, src, want string) {
	t.Helper()
	g := build(t, src)
	got := strings.TrimSpace(g.String())
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("graph mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestIfElse pins the baseline two-way branch: Succs[0] is the true
// edge, Succs[1] the false edge, both meeting at if.done.
func TestIfElse(t *testing.T) {
	check(t, `
func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`, `
0:entry[2] -> 2 3
1:exit[0]
2:if.then[1] -> 4
3:if.else[1] -> 4
4:if.done[1] -> 1
`)
}

// TestLabeledBreakContinueNestedLoops is the labeled-branch edge case:
// continue outer from the inner loop must target the outer loop's post
// block, break outer its done block — not the inner loop's.
func TestLabeledBreakContinueNestedLoops(t *testing.T) {
	check(t, `
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 5 {
				continue outer
			}
			if j == 7 {
				break outer
			}
			use(i, j)
		}
	}
	done()
}`, `
0:entry[0] -> 2
1:exit[0]
2:label.outer[1] -> 3
3:for.head[1] -> 4 6
4:for.body[1] -> 7
5:for.post[1] -> 3
6:for.done[1] -> 1
7:for.head[1] -> 8 10
8:for.body[1] -> 11 12
9:for.post[1] -> 7
10:for.done[0] -> 5
11:if.then[0] -> 5
12:if.done[1] -> 13 14
13:if.then[0] -> 6
14:if.done[1] -> 9
`)
}

// TestGotoAcrossBlocks exercises goto both backward (into an already
// built labeled block) and forward (into a placeholder created before
// the labeled statement is reached).
func TestGotoAcrossBlocks(t *testing.T) {
	check(t, `
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	if n < 0 {
		goto out
	}
	i *= 2
out:
	return i
}`, `
0:entry[1] -> 2
1:exit[0]
2:label.loop[1] -> 3 4
3:if.then[1] -> 2
4:if.done[1] -> 5 7
5:if.then[0] -> 6
6:label.out[1] -> 1
7:if.done[1] -> 6
`)
}

// TestSelectNoDefault pins the blocking-select semantics: every comm
// clause is a successor of the head, and without a default there is no
// skip edge to select.done.
func TestSelectNoDefault(t *testing.T) {
	check(t, `
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
	}
	return 0
}`, `
0:entry[0] -> 2 3
1:exit[0]
2:select.case[2] -> 1
3:select.case[1] -> 4
4:select.done[1] -> 1
`)
}

// TestSelectEmpty: select {} blocks forever, so the head has no
// successors at all and the code after it is unreachable.
func TestSelectEmpty(t *testing.T) {
	check(t, `
func f() {
	select {}
	use()
}`, `
0:entry[0]
1:exit[0]
2:select.done[1] -> 1
`)
}

// TestDeferredClosure asserts a deferred closure stays one opaque node
// in its registration block — the closure body is never expanded into
// the enclosing function's graph.
func TestDeferredClosure(t *testing.T) {
	g := build(t, `
func f(mu locker) {
	mu.Lock()
	defer func() {
		mu.Unlock()
	}()
	work()
}`)
	want := `
0:entry[3] -> 1
1:exit[0]
`
	if got := strings.TrimSpace(g.String()); got != strings.TrimSpace(want) {
		t.Fatalf("graph mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if _, ok := g.Blocks[0].Nodes[1].(*ast.DeferStmt); !ok {
		t.Errorf("entry node 1 is %T, want *ast.DeferStmt recorded at its registration point", g.Blocks[0].Nodes[1])
	}
}

// TestUnreachableAfterPanic: an explicit panic terminates its block
// with a Panic-marked edge to exit; the dead statements after it live
// in an unreachable block that is kept (dead code is a fact worth
// surfacing) but never visited by the solver.
func TestUnreachableAfterPanic(t *testing.T) {
	check(t, `
func f(x int) {
	if x < 0 {
		panic("neg")
		x = 1
	}
	use(x)
}`, `
0:entry[1] -> 2 4
1:exit[0]
2:if.then[1]! -> 1
3:unreachable[1] -> 4
4:if.done[1] -> 1
`)
}

// TestSwitchFallthroughNoDefault: fallthrough jumps to the next clause
// block, and without a default the head keeps a direct edge to done.
func TestSwitchFallthroughNoDefault(t *testing.T) {
	check(t, `
func f(x int) int {
	r := 0
	switch x {
	case 1:
		r = 1
		fallthrough
	case 2:
		r += 2
	}
	return r
}`, `
0:entry[2] -> 2 3 4
1:exit[0]
2:switch.case[2] -> 3
3:switch.case[2] -> 4
4:switch.done[1] -> 1
`)
}

// TestBreakInSwitchInLoop: an unlabeled break inside a switch inside a
// loop targets the switch's done block, not the loop's.
func TestBreakInSwitchInLoop(t *testing.T) {
	check(t, `
func f(xs []int) {
	for _, x := range xs {
		switch x {
		case 0:
			break
		default:
			use(x)
		}
		use(x)
	}
}`, `
0:entry[0] -> 2
1:exit[0]
2:range.head[1] -> 3 4
3:range.body[1] -> 5 6
4:range.done[0] -> 1
5:switch.case[1] -> 7
6:switch.default[1] -> 7
7:switch.done[1] -> 2
`)
}

// TestCondlessFor: for {} loops back to its own head; the done block
// exists only if something breaks to it.
func TestCondlessFor(t *testing.T) {
	check(t, `
func f() {
	for {
		if stop() {
			break
		}
		work()
	}
}`, `
0:entry[0] -> 2
1:exit[0]
2:for.head[0] -> 3
3:for.body[1] -> 5 6
4:for.done[0] -> 1
5:if.then[0] -> 4
6:if.done[1] -> 2
`)
}

// TestSolverLockPairing runs the worklist solver end to end on a
// balanced and an unbalanced lock pattern, using a boolean "may be
// locked" fact — the miniature of what the lockbalance analyzer does.
func TestSolverLockPairing(t *testing.T) {
	mayLockedAtExit := func(src string) bool {
		g := build(t, src)
		sol := Solve(g, Analysis[bool]{
			Entry: false,
			Transfer: func(b *Block, in bool) bool {
				out := in
				for _, n := range b.Nodes {
					es, ok := n.(*ast.ExprStmt)
					if !ok {
						continue
					}
					call, ok := es.X.(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := call.Fun.(*ast.Ident); ok {
						switch id.Name {
						case "lock":
							out = true
						case "unlock":
							out = false
						}
					}
				}
				return out
			},
			Join:  func(a, b bool) bool { return a || b },
			Equal: func(a, b bool) bool { return a == b },
		})
		return sol.In[g.Exit().Index]
	}

	balanced := `
func f(c bool) {
	lock()
	if c {
		unlock()
		return
	}
	unlock()
}`
	if mayLockedAtExit(balanced) {
		t.Error("balanced lock/unlock reported as may-locked at exit")
	}

	leaky := `
func f(c bool) {
	lock()
	if c {
		return
	}
	unlock()
}`
	if !mayLockedAtExit(leaky) {
		t.Error("leaky early return not reported as may-locked at exit")
	}
}

// TestSolverSkipsDeadCode: blocks unreachable from the entry keep the
// zero fact and Reached=false.
func TestSolverSkipsDeadCode(t *testing.T) {
	g := build(t, `
func f() {
	panic("always")
	use()
}`)
	sol := Solve(g, Analysis[int]{
		Entry:    1,
		Transfer: func(b *Block, in int) int { return in },
		Join:     func(a, b int) int { return a + b },
		Equal:    func(a, b int) bool { return a == b },
	})
	var dead *Block
	for _, b := range g.Blocks {
		if b.Kind == "unreachable" {
			dead = b
		}
	}
	if dead == nil {
		t.Fatal("no unreachable block for dead code")
	}
	if sol.Reached[dead.Index] {
		t.Error("solver visited a block with no path from entry")
	}
	if !sol.Reached[g.Exit().Index] {
		t.Error("exit not reached through the panic edge")
	}
}
