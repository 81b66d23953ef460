package lint

// A generic iterative forward dataflow solver over CFG blocks. Problems
// supply the lattice (Merge, Equal), the boundary fact, a transfer
// function, and an edge step; Solve sweeps blocks round-robin in index
// order until a fixed point.
//
// Facts must be treated as immutable by Transfer and Refine (return a
// fresh value) and Merge must be commutative and associative. Blocks
// that are never reached from the entry keep no entry in the solution
// maps — the facts of unreachable code are undefined, and callers
// should skip such blocks.

import "go/ast"

// Problem is one forward dataflow analysis. F is the fact type; the
// zero value of F is never passed to Transfer/Refine/Merge/Equal — only
// facts produced by Boundary, Transfer, Refine, or Merge are.
type Problem[F any] interface {
	// Boundary is the fact entering the entry block.
	Boundary() F
	// Transfer computes the fact leaving a block from the fact entering it.
	Transfer(b *Block, in F) F
	// Refine sharpens a block's out-fact along one outgoing edge before
	// it merges into the successor (a branch condition's truth value).
	Refine(from, to *Block, out F) F
	// Merge joins two facts at a control-flow join.
	Merge(a, b F) F
	// Equal reports whether two facts are the same (fixpoint test).
	Equal(a, b F) bool
}

// plainEdges is the identity edge step, for problems whose facts do not
// depend on which branch was taken.
type plainEdges[F any] struct{}

func (plainEdges[F]) Refine(_, _ *Block, out F) F { return out }

// Solution holds per-block facts: In entering a block, Out leaving it
// (before any edge refinement). Blocks unreachable from the entry are
// absent from both maps.
type Solution[F any] struct {
	In, Out map[*Block]F
}

// Solve runs the iterative algorithm to a fixed point and returns the
// per-block facts. Determinism: blocks are swept in index order and
// merge order follows the Preds slice order, both of which are fixed by
// the lowering.
func Solve[F any](c *CFG, p Problem[F]) Solution[F] {
	sol := Solution[F]{
		In:  make(map[*Block]F, len(c.Blocks)),
		Out: make(map[*Block]F, len(c.Blocks)),
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range c.Blocks {
			var in F
			have := false
			if blk == c.Entry {
				in = p.Boundary()
				have = true
			}
			for _, pb := range blk.Preds {
				out, ok := sol.Out[pb]
				if !ok {
					continue // not yet reached; contributes nothing
				}
				out = p.Refine(pb, blk, out)
				if !have {
					in, have = out, true
				} else {
					in = p.Merge(in, out)
				}
			}
			if !have {
				continue // unreachable from the entry (so far)
			}
			out := p.Transfer(blk, in)
			oldIn, hadIn := sol.In[blk]
			oldOut := sol.Out[blk]
			if !hadIn || !p.Equal(oldIn, in) || !p.Equal(oldOut, out) {
				sol.In[blk] = in
				sol.Out[blk] = out
				changed = true
			}
		}
	}
	return sol
}

// replay walks every block the solution reached, calling visit with the
// fact in force immediately before each block-level node takes effect.
// step folds one node into a fact and must not mutate its argument.
func replay[F any](c *CFG, sol Solution[F], step func(ast.Node, F) F, visit func(*Block, ast.Node, F)) {
	for _, blk := range c.Blocks {
		fact, ok := sol.In[blk]
		if !ok {
			continue // unreachable
		}
		for _, nd := range blk.Nodes {
			visit(blk, nd, fact)
			fact = step(nd, fact)
		}
	}
}
