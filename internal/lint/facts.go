package lint

import (
	"go/ast"
	"go/token"
)

// nodeFacts is the per-function facts record every flow-sensitive
// analyzer reads through the Node accessors below. Each fact is built on
// first request and kept for the rest of the run (one Graph per
// checkAll), so a function analyzed by deferclose, divzero and nansource
// is lowered to a CFG once and solved once per problem.
// Analyzers run sequentially; the record needs no locking.
type nodeFacts struct {
	cfg     *CFG
	may     *Solution[heldLocks]
	flow    *funcFlow
	values  *funcFacts
	edgesAt map[token.Pos][]*Edge
}

// CFG returns the function's control-flow graph.
func (n *Node) CFG() *CFG {
	if n.facts.cfg == nil {
		n.facts.cfg = NewCFG(n.Body())
	}
	return n.facts.cfg
}

// MayLocks returns the may-held lockset solution (union merge, empty
// entry): the locks that can be held on some path.
func (n *Node) MayLocks() Solution[heldLocks] {
	if n.facts.may == nil {
		sol := Solve[heldLocks](n.CFG(), lockProblem{pkg: n.Pkg})
		n.facts.may = &sol
	}
	return *n.facts.may
}

// Flow returns the def-use value-flow summary.
func (n *Node) Flow() *funcFlow {
	if n.facts.flow == nil {
		n.facts.flow = newFuncFlow(n)
	}
	return n.facts.flow
}

// ValueFacts returns the edge-refined value facts over Flow.
func (n *Node) ValueFacts() *funcFacts {
	if n.facts.values == nil {
		n.facts.values = newFuncFacts(n.Flow())
	}
	return n.facts.values
}

// EdgesAt returns the outgoing call-graph edges of the call at pos.
func (n *Node) EdgesAt(pos token.Pos) []*Edge {
	if n.facts.edgesAt == nil {
		n.facts.edgesAt = make(map[token.Pos][]*Edge, len(n.Out))
		for _, e := range n.Out {
			n.facts.edgesAt[e.Pos] = append(n.facts.edgesAt[e.Pos], e)
		}
	}
	return n.facts.edgesAt[pos]
}

// walkLocksets replays every reachable block of n under a lockset
// solution, calling visit with the lockset in force immediately before
// each block-level node takes effect.
func walkLocksets(n *Node, sol Solution[heldLocks], visit func(blk *Block, nd ast.Node, held heldLocks)) {
	replay(n.CFG(), sol, func(nd ast.Node, f heldLocks) heldLocks { return applyLockOps(n.Pkg, nd, f) }, visit)
}
