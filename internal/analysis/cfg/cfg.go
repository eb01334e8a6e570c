// Package cfg builds per-function control-flow graphs from the AST and
// solves forward dataflow problems over them (DESIGN.md §15). It is the
// layer that lets the lint suite (internal/analysis/analyzers) check
// "on every path" contracts — span Begin/End pairing, lock balance,
// writer Close reachability — at compile time instead of relying on the
// runtime leak counters.
//
// The builder mirrors the shape of golang.org/x/tools/go/cfg but, like
// the rest of the analysis framework, is built on the standard library
// alone. Graphs are purely syntactic: no type information is consumed,
// so a Graph can be built for any parsed function body, fixtures
// included.
//
// # Structure
//
// Blocks[0] is the entry block and Blocks[1] the exit block; every
// return statement, explicit panic call and fall-off-the-end path has
// an edge to the exit, so "holds at function exit" is exactly "holds at
// In(exit)". Block.Nodes contain only simple statements and expressions
// (assignments, calls, conditions, case expressions, defer and go
// statements) — never composite statements — so a transfer function can
// inspect each node without double-visiting nested bodies. Function
// literals appearing inside a node are part of that node; analyzers
// decide whether to descend (see analyzers' inspectNoFunc).
//
// Defer statements are recorded as ordinary nodes at their registration
// point. That is the right abstraction for exit-path analyses: a
// deferred release runs at every function exit reachable after the
// defer executes, so treating the registration point as the release
// point computes exactly the right fact at the exit block.
//
// Blocks that terminate in an explicit panic(...) call carry Panic=true
// on their edge to exit, letting analyzers decide whether resources
// abandoned on a dying path are worth reporting.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks holds every basic block; Blocks[0] is the entry block and
	// Blocks[1] the exit block. Order is deterministic (construction
	// order), so dumps and solver iterations are stable.
	Blocks []*Block
}

// Exit returns the exit block: the single successor of every return,
// explicit panic, and fall-off-the-end path.
func (g *Graph) Exit() *Block { return g.Blocks[1] }

// Block is one basic block.
type Block struct {
	Index int
	// Kind names the block's structural role ("entry", "if.then",
	// "for.head", "select.case", "label.retry", "unreachable", ...);
	// it exists for tests and debugging, not for analyzer logic.
	Kind string
	// Nodes are the simple statements and expressions executed in this
	// block, in order. Composite statements never appear; their pieces
	// are distributed over the blocks they induce.
	Nodes []ast.Node
	// Cond is the branch condition when the block ends in a two-way
	// conditional branch (if statements and for-loop conditions). When
	// set, Succs[0] is the true edge and Succs[1] the false edge.
	Cond ast.Expr
	// Panic marks a block whose edge to exit is an explicit panic(...)
	// call rather than a return or normal fall-through.
	Panic bool
	// Succs are the possible successors, in deterministic order.
	Succs []*Block
}

func (b *Block) String() string {
	return fmt.Sprintf("block %d (%s)", b.Index, b.Kind)
}

// New builds the control-flow graph of body. The graph is purely
// syntactic; body is typically a *ast.FuncDecl.Body or *ast.FuncLit.Body
// but any block statement works.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*Block{}}
	entry := b.newBlock("entry")
	b.exit = b.newBlock("exit")
	b.cur = entry
	b.stmt(body)
	b.jump(b.exit) // fall off the end
	b.g.compact()
	return b.g
}

// compact removes empty unreachable blocks (no predecessors, no nodes)
// that the builder leaves behind after terminating statements, then
// renumbers. Unreachable blocks that contain code are kept: dead code
// is a fact about the function worth surfacing, and the solver simply
// never visits it.
func (g *Graph) compact() {
	for {
		preds := make(map[*Block]int)
		for _, b := range g.Blocks {
			for _, s := range b.Succs {
				preds[s]++
			}
		}
		kept := g.Blocks[:0]
		removed := false
		for i, b := range g.Blocks {
			if i >= 2 && preds[b] == 0 && len(b.Nodes) == 0 {
				removed = true
				continue
			}
			kept = append(kept, b)
		}
		g.Blocks = kept
		if !removed {
			break
		}
	}
	for i, b := range g.Blocks {
		b.Index = i
	}
}

// String renders the graph one block per line as
// "index:kind[nodes] -> succ succ", with "!" marking panic blocks.
// Tests pin exact block/edge structure against this format.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%d:%s[%d]", b.Index, b.Kind, len(b.Nodes))
		if b.Panic {
			sb.WriteByte('!')
		}
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " %d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// targets is the stack of enclosing break/continue destinations.
type targets struct {
	tail  *targets
	label string
	brk   *Block
	cont  *Block // nil inside switch/select
}

type builder struct {
	g    *Graph
	cur  *Block
	exit *Block
	// targets tracks enclosing loops/switches for break and continue.
	targets *targets
	// labels maps label names to their blocks; goto may create a
	// placeholder before the labeled statement is reached.
	labels map[string]*Block
	// pendingLabel carries a label down to the loop/switch/select it
	// labels, so labeled break/continue resolve.
	pendingLabel string
	// fall is the next case-clause block, the target of fallthrough.
	fall *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) jump(to *Block) {
	b.cur.Succs = append(b.cur.Succs, to)
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// findBreak resolves a break destination: the innermost enclosing
// loop/switch/select for an unlabeled break, the matching labeled one
// otherwise. Nil only on invalid input (which type-checked code is not).
func (b *builder) findBreak(label string) *Block {
	for t := b.targets; t != nil; t = t.tail {
		if label == "" || t.label == label {
			return t.brk
		}
	}
	return nil
}

// findContinue resolves a continue destination: the innermost enclosing
// loop (switch/select entries have no continue target and are skipped).
func (b *builder) findContinue(label string) *Block {
	for t := b.targets; t != nil; t = t.tail {
		if t.cont != nil && (label == "" || t.label == label) {
			return t.cont
		}
	}
	return nil
}

// isPanicCall reports whether e is a call of the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur.Panic = true
			b.jump(b.exit)
			b.cur = b.newBlock("unreachable")
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.exit)
		b.cur = b.newBlock("unreachable")
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(labelOf(s)); t != nil {
				b.jump(t)
			}
			b.cur = b.newBlock("unreachable")
		case token.CONTINUE:
			if t := b.findContinue(labelOf(s)); t != nil {
				b.jump(t)
			}
			b.cur = b.newBlock("unreachable")
		case token.GOTO:
			b.jump(b.labelBlock(s.Label.Name))
			b.cur = b.newBlock("unreachable")
		case token.FALLTHROUGH:
			if b.fall != nil {
				b.jump(b.fall)
			}
			b.cur = b.newBlock("unreachable")
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		head.Cond = s.Cond
		then := b.newBlock("if.then")
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		var els, elsEnd *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
			b.cur = els
			b.stmt(s.Else)
			elsEnd = b.cur
		}
		done := b.newBlock("if.done")
		if els != nil {
			head.Succs = append(head.Succs, then, els)
			elsEnd.Succs = append(elsEnd.Succs, done)
		} else {
			head.Succs = append(head.Succs, then, done)
		}
		thenEnd.Succs = append(thenEnd.Succs, done)
		b.cur = done
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		b.jump(head)
		body := b.newBlock("for.body")
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		done := b.newBlock("for.done")
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
			head.Succs = append(head.Succs, body, done)
		} else {
			head.Succs = append(head.Succs, body)
		}
		cont := head
		if post != nil {
			cont = post
		}
		b.targets = &targets{tail: b.targets, label: label, brk: done, cont: cont}
		b.cur = body
		b.stmt(s.Body)
		b.jump(cont)
		b.targets = b.targets.tail
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.jump(head)
		}
		b.cur = done
	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		b.jump(head)
		head.Nodes = append(head.Nodes, s.X)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		head.Succs = append(head.Succs, body, done)
		b.targets = &targets{tail: b.targets, label: label, brk: done, cont: head}
		b.cur = body
		b.stmt(s.Body)
		b.jump(head)
		b.targets = b.targets.tail
		b.cur = done
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, "switch")
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, "typeswitch")
	case *ast.SelectStmt:
		head := b.cur
		var clauses []*ast.CommClause
		for _, c := range s.Body.List {
			clauses = append(clauses, c.(*ast.CommClause))
		}
		blocks := make([]*Block, len(clauses))
		for i, c := range clauses {
			kind := "select.case"
			if c.Comm == nil {
				kind = "select.default"
			}
			blocks[i] = b.newBlock(kind)
		}
		done := b.newBlock("select.done")
		// Every clause is a successor of the head. With no default the
		// select blocks until a communication is ready, so there is no
		// head->done skip edge; `select {}` has no successors at all.
		head.Succs = append(head.Succs, blocks...)
		b.targets = &targets{tail: b.targets, label: label, brk: done}
		for i, c := range clauses {
			b.cur = blocks[i]
			b.stmt(c.Comm)
			for _, st := range c.Body {
				b.stmt(st)
			}
			b.jump(done)
		}
		b.targets = b.targets.tail
		b.cur = done
	default:
		// Simple statements: declarations, assignments, inc/dec, send,
		// defer, go. Recorded in order for the transfer function.
		b.add(s)
	}
}

// switchBody wires the clause blocks of a switch or type switch: the
// head branches to every clause (plus done when there is no default),
// fallthrough jumps to the next clause block, break targets done.
func (b *builder) switchBody(label string, body *ast.BlockStmt, kind string) {
	head := b.cur
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		k := kind + ".case"
		if c.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(k)
	}
	done := b.newBlock(kind + ".done")
	head.Succs = append(head.Succs, blocks...)
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	b.targets = &targets{tail: b.targets, label: label, brk: done}
	savedFall := b.fall
	for i, c := range clauses {
		b.cur = blocks[i]
		for _, e := range c.List {
			b.add(e)
		}
		if i+1 < len(blocks) {
			b.fall = blocks[i+1]
		} else {
			b.fall = nil
		}
		for _, st := range c.Body {
			b.stmt(st)
		}
		b.jump(done)
	}
	b.fall = savedFall
	b.targets = b.targets.tail
	b.cur = done
}

func labelOf(s *ast.BranchStmt) string {
	if s.Label == nil {
		return ""
	}
	return s.Label.Name
}
