package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// parseBody parses one function declaration and returns its body for
// CFG construction. The snippet needs no package clause.
func parseBody(t *testing.T, src string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return fset, fn.Body
		}
	}
	t.Fatal("no function in snippet")
	return nil, nil
}

func checkCFG(t *testing.T, src, want string) {
	t.Helper()
	fset, body := parseBody(t, src)
	got := NewCFG(body).DebugString(fset)
	want = strings.TrimPrefix(want, "\n")
	if got != want {
		t.Errorf("CFG shape drifted:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestCFGSelect pins select lowering: the select's own block carries the
// terminator, each comm clause gets a block whose first node is the
// send/recv, and every case (plus default) edges into select.done.
func TestCFGSelect(t *testing.T) {
	checkCFG(t, `
func f(ch chan int, out chan int) {
	x := 0
	select {
	case v := <-ch:
		x = v
	case out <- x:
	default:
		x = 1
	}
	_ = x
}`, `
b0 entry: [x := 0] -> b2 b3 b4
b1 select.done: [_ = x] -> b5
b2 select.case: [v := <-ch] [x = v] -> b1
b3 select.case: [out <- x] -> b1
b4 select.default: [x = 1] -> b1
b5 exit:
`)
}

// TestCFGDeferAndPanic pins two flow facts at once: a defer is an
// ordinary node of its block (registration point, not execution point),
// and a panic-only branch never reaches if.done or exit.
func TestCFGDeferAndPanic(t *testing.T) {
	checkCFG(t, `
func g(cond bool) {
	acquire()
	defer release()
	if cond {
		panic("boom")
	}
}`, `
b0 entry: [acquire()] [defer release()] [cond] -> b1 b2
b1 if.then: [panic("boom")]
b2 if.done: -> b3
b3 exit:
`)
}

// TestCFGLabeledLoops pins labeled break/continue resolution across a
// nested loop: continue outer lands on the for.post block, break outer
// on the outer for.done, and the label point is its own block.
func TestCFGLabeledLoops(t *testing.T) {
	checkCFG(t, `
func h(items [][]int) int {
	sum := 0
outer:
	for i := 0; i < len(items); i++ {
		for _, v := range items[i] {
			if v < 0 {
				continue outer
			}
			if v == 0 {
				break outer
			}
			sum += v
		}
	}
	return sum
}`, `
b0 entry: [sum := 0] -> b1
b1 label.outer: [i := 0] -> b2
b2 for.loop: [i < len(items)] -> b3 b5
b3 for.body: [items[i]] -> b6
b4 for.post: [i++] -> b2
b5 for.done: [return sum] -> b13
b6 range.loop: -> b7 b8
b7 range.body: [v < 0] -> b9 b10
b8 range.done: -> b4
b9 if.then: -> b4
b10 if.done: [v == 0] -> b11 b12
b11 if.then: -> b5
b12 if.done: [sum += v] -> b6
b13 exit:
`)
}

// TestCFGGoto pins goto resolution in both directions: the backward
// goto loop re-enters the labeled block, the forward goto done jumps
// out over statements that then lower into an unreachable dead block.
func TestCFGGoto(t *testing.T) {
	checkCFG(t, `
func gt(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	goto done
	i = -1
done:
	return i
}`, `
b0 entry: [i := 0] -> b1
b1 label.loop: [i < n] -> b2 b3
b2 if.then: [i++] -> b1
b3 if.done: -> b5
b4 dead: [i = -1] -> b5
b5 label.done: [return i] -> b6
b6 exit:
`)
}

// TestCFGNestedFallthrough pins fallthrough at two nesting depths: the
// inner switch's fallthrough chains case 1 into case 2's body, and the
// outer fallthrough chains case 0's whole aftermath into case 3 —
// without the inner switch's cases leaking into the outer chain.
func TestCFGNestedFallthrough(t *testing.T) {
	checkCFG(t, `
func sw(x int) int {
	n := 0
	switch x {
	case 0:
		switch x {
		case 1:
			n = 1
			fallthrough
		case 2:
			n = 2
		}
		fallthrough
	case 3:
		n += 3
	default:
		n = 9
	}
	return n
}`, `
b0 entry: [n := 0] [x] -> b2 b3 b4
b1 switch.done: [return n] -> b8
b2 switch.case: [0] [x] -> b6 b7 b5
b3 switch.case: [3] [n += 3] -> b1
b4 switch.default: [n = 9] -> b1
b5 switch.done: -> b3
b6 switch.case: [1] [n = 1] -> b7
b7 switch.case: [2] [n = 2] -> b5
b8 exit:
`)
}

// --- dataflow solver ---------------------------------------------------

// kindsProblem collects the set of block kinds traversed from the
// boundary — a may-analysis whose lattice (sets under union) saturates,
// so loops converge. Facts are treated as immutable.
type kindsProblem struct{ plainEdges[map[string]bool] }

func (kindsProblem) Boundary() map[string]bool { return map[string]bool{} }

func (kindsProblem) Transfer(b *Block, in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in)+1)
	for k := range in {
		out[k] = true
	}
	out[b.Kind] = true
	return out
}

func (kindsProblem) Merge(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func (kindsProblem) Equal(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func kindSet(m map[string]bool) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}

// TestSolveForward runs the kind-collector forward over a loop wrapping
// a branch: the fixpoint saturates, so the exit sees every reachable
// kind — including both arms, whose facts flow around the back edge.
func TestSolveForward(t *testing.T) {
	_, body := parseBody(t, `
func f(c bool) {
	for c {
		if c {
			work()
		} else {
			rest()
		}
	}
}`)
	c := NewCFG(body)
	sol := Solve[map[string]bool](c, kindsProblem{})

	in, ok := sol.In[c.Exit]
	if !ok {
		t.Fatal("exit block missing from forward solution")
	}
	if got, want := kindSet(in), "entry for.body for.done for.loop if.done if.else if.then"; got != want {
		t.Errorf("kinds into exit = %q, want %q", got, want)
	}
}

// TestSolveForwardBranchIsolation: without a loop there is no back
// edge, so one arm's fact never leaks into the other — if.then enters
// with only the entry's kinds while the merge point sees both arms.
func TestSolveForwardBranchIsolation(t *testing.T) {
	_, body := parseBody(t, `
func f(c bool) {
	if c {
		work()
	} else {
		rest()
	}
	done()
}`)
	c := NewCFG(body)
	sol := Solve[map[string]bool](c, kindsProblem{})

	for _, blk := range c.Blocks {
		switch blk.Kind {
		case "if.then":
			if got, want := kindSet(sol.In[blk]), "entry"; got != want {
				t.Errorf("kinds into if.then = %q, want %q", got, want)
			}
		case "if.done":
			if got, want := kindSet(sol.In[blk]), "entry if.else if.then"; got != want {
				t.Errorf("kinds into if.done = %q, want %q", got, want)
			}
		}
	}
}

// edgeProblem is the kind-collector with an edge step: every edge out of
// an if adds "from→to", so a successor's fact records the branch taken.
type edgeProblem struct{ kindsProblem }

func (edgeProblem) Refine(from, to *Block, out map[string]bool) map[string]bool {
	if _, ok := from.Term.(*ast.IfStmt); !ok {
		return out
	}
	return kindsProblem{}.Merge(out, map[string]bool{from.Kind + "→" + to.Kind: true})
}

// TestSolveRefinesEdges: the edge step applies per edge, before the
// merge — each arm sees only its own edge, the join sees both, and the
// solution's Out stays the unrefined transfer result.
func TestSolveRefinesEdges(t *testing.T) {
	_, body := parseBody(t, `
func f(c bool) {
	if c {
		work()
	} else {
		rest()
	}
	done()
}`)
	c := NewCFG(body)
	sol := Solve[map[string]bool](c, edgeProblem{})

	want := map[string]string{
		"if.then": "entry entry→if.then",
		"if.else": "entry entry→if.else",
		"if.done": "entry entry→if.else entry→if.then if.else if.then",
	}
	for _, blk := range c.Blocks {
		if w, ok := want[blk.Kind]; ok {
			if got := kindSet(sol.In[blk]); got != w {
				t.Errorf("facts into %s = %q, want %q", blk.Kind, got, w)
			}
		}
	}
	if got := kindSet(sol.Out[c.Entry]); got != "entry" {
		t.Errorf("entry out-fact = %q, want the unrefined %q", got, "entry")
	}
}

// TestSolveSkipsUnreachable: statements after a return lower into a
// "dead" block with no predecessors; the forward solution must omit it
// so path-sensitive checks never report on unreachable code.
func TestSolveSkipsUnreachable(t *testing.T) {
	_, body := parseBody(t, `
func f() int {
	return 1
	x := 2
	_ = x
}`)
	c := NewCFG(body)
	sol := Solve[map[string]bool](c, kindsProblem{})
	for _, blk := range c.Blocks {
		if blk.Kind != "dead" {
			continue
		}
		if _, ok := sol.In[blk]; ok {
			t.Errorf("dead block b%d has a forward fact; unreachable blocks must be absent", blk.Index)
		}
		return
	}
	t.Fatal("no dead block lowered for code after return")
}
