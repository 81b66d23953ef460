package lint

import (
	"go/ast"
	"maps"
	"path/filepath"
	"testing"
)

// worklistFacts is an independent value-fact solver, the oracle for
// Solve: a FIFO worklist from the entry block, where a successor's state
// is the intersection of every refined edge state it has been offered so
// far, then a replay recording the entry state of every block-level node.
func worklistFacts(fc *funcFacts) map[ast.Node]factState {
	c := fc.ff.cfg
	in := map[*Block]factState{c.Entry: fc.Boundary()}
	work := []*Block{c.Entry}
	inWork := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false
		out := fc.Transfer(blk, in[blk])
		for _, s := range blk.Succs {
			next := fc.Refine(blk, s, out)
			old, seen := in[s]
			if seen {
				next = intersectState(old, next)
			}
			if !seen || !maps.Equal(old, next) {
				in[s] = next
				if !inWork[s] {
					work = append(work, s)
					inWork[s] = true
				}
			}
		}
	}
	atNode := make(map[ast.Node]factState)
	for _, blk := range c.Blocks {
		cur, ok := in[blk]
		if !ok {
			continue
		}
		for _, n := range blk.Nodes {
			atNode[n] = cur
			cur = fc.step(n, cur)
		}
	}
	return atNode
}

// TestValueFactsMatchWorklist pins the value facts solved by Solve to the
// worklist oracle, node by node, on every function of the module and of
// the two value-flow fixtures.
func TestValueFactsMatchWorklist(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	trees := map[string][]*Package{"module": loadTree(t)}
	for _, name := range []string{"divzero", "nansource"} {
		pkgs, err := sharedLoader(t).LoadFixtureTree(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatalf("load fixture %s: %v", name, err)
		}
		trees[name] = pkgs
	}
	for tree, pkgs := range trees {
		funcs, nodes := 0, 0
		for _, n := range BuildGraph(pkgs).Funcs {
			fc := n.ValueFacts()
			want := worklistFacts(fc)
			if !maps.EqualFunc(fc.atNode, want, func(a, b factState) bool { return maps.Equal(a, b) }) {
				t.Errorf("%s: %s: value facts differ from the worklist oracle", tree, n.Name)
			}
			funcs++
			nodes += len(want)
		}
		if funcs == 0 || nodes == 0 {
			t.Errorf("%s: compared %d functions, %d nodes", tree, funcs, nodes)
		}
	}
}
