package lint

// LockOrder detects potential deadlocks from inconsistent lock
// acquisition order. Per function it runs the may-held lockset analysis
// over the CFG; every acquisition of lock B while some lock A may be
// held adds a directed edge A→B to a module-wide lock-order graph.
// Acquisitions are also propagated interprocedurally: calling a
// function that (transitively) acquires B while holding A adds the same
// edge, with the call chain recorded as the witness. A cycle in the
// order graph means two executions can acquire the same locks in
// opposite orders and deadlock.
//
// Only locks with a module-wide identity (struct fields, package vars)
// participate: two locals named "mu" in different functions are
// different locks. Goroutine-spawn edges and non-local dynamic dispatch
// are excluded from the interprocedural summaries — a spawned goroutine
// does not hold its creator's locks, and CHA candidate sets would
// manufacture order edges no execution takes.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "build the module lock-acquisition-order graph from per-function locksets " +
		"and report cycles (potential deadlocks) with witness paths",
	RunModule: runLockOrder,
}

// orderEdge is one A-held-while-acquiring-B observation.
type orderEdge struct {
	from, to string
	pos      token.Pos // the acquisition (or call) site
	heldAt   token.Pos // where the held lock was taken
	fn       *Node
	chain    []string // call-chain witness for interprocedural edges
}

func runLockOrder(pass *ModulePass) {
	g := pass.Graph

	// Pass 1: direct acquisitions per function (module-wide — a covered
	// function may reach lock acquisitions through uncovered helpers),
	// deferred ones excluded. trans[n][lock] is the callee n acquires the
	// lock through, nil when n acquires it itself.
	trans := make(map[*Node]map[string]*Node)
	for _, n := range g.Funcs {
		walkNodeOps(n.Body(), func(a ast.Node) {
			recv, kind, ok := mutexOp(n.Pkg, a)
			if !ok || (kind != "Lock" && kind != "RLock") {
				return
			}
			if ref := resolveLockRef(n.Pkg, recv); ref.Global != "" {
				if trans[n] == nil {
					trans[n] = make(map[string]*Node)
				}
				trans[n][ref.Global] = nil
			}
		})
	}

	// Pass 2: transitive closure over call edges, deterministic sweeps
	// to a fixed point. First discovery wins, so witness chains are
	// stable across runs.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Funcs {
			for _, e := range n.Out {
				if !summaryEdgeOK(e) {
					continue
				}
				for _, id := range sortedKeys(trans[e.Callee]) {
					if _, seen := trans[n][id]; seen {
						continue
					}
					if trans[n] == nil {
						trans[n] = make(map[string]*Node)
					}
					trans[n][id] = e.Callee
					changed = true
				}
			}
		}
	}

	// Pass 3: order edges from the flow-sensitive locksets of covered
	// functions.
	edges := make(map[[2]string]orderEdge)
	record := func(held lockAcq, to string, at token.Pos, fn *Node, chain []string) {
		from := held.Ref.Global
		if from == "" || from == to {
			return
		}
		key := [2]string{from, to}
		e := orderEdge{from: from, to: to, pos: at, heldAt: held.Pos, fn: fn, chain: chain}
		if old, ok := edges[key]; !ok || posLess(pass.Fset(), e.pos, old.pos) {
			edges[key] = e
		}
	}
	for _, n := range g.Funcs {
		if !pass.InScope(ScopeLockOrder, n.Pkg.Path) {
			continue
		}
		walkLocksets(n, n.MayLocks(), func(_ *Block, nd ast.Node, held heldLocks) {
			if len(held) == 0 {
				return
			}
			walkNodeOps(nd, func(a ast.Node) {
				if recv, kind, ok := mutexOp(n.Pkg, a); ok && (kind == "Lock" || kind == "RLock") {
					ref := resolveLockRef(n.Pkg, recv)
					if ref.Global != "" {
						for _, h := range sortedHeld(held) {
							record(h, ref.Global, a.Pos(), n, nil)
						}
					}
					return
				}
				call, ok := a.(*ast.CallExpr)
				if !ok {
					return
				}
				for _, e := range n.EdgesAt(call.Pos()) {
					if !summaryEdgeOK(e) {
						continue
					}
					for _, id := range sortedKeys(trans[e.Callee]) {
						chain := acqChain(n, e, id, trans)
						for _, h := range sortedHeld(held) {
							record(h, id, call.Pos(), n, chain)
						}
					}
				}
			})
		})
	}

	reportOrderCycles(pass, edges)
}

// acqChain renders the call-chain witness for an interprocedural
// acquisition: caller → call sites → the acquiring function.
func acqChain(n *Node, e *Edge, id string, trans map[*Node]map[string]*Node) []string {
	chain := []string{n.Name}
	for cur, i := e.Callee, 0; cur != nil && i < 64; cur, i = trans[cur][id], i+1 {
		chain = append(chain, cur.Name)
	}
	return chain
}

// sortedKeys returns a map's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// reportOrderCycles finds strongly connected components of the order
// graph and reports each as one potential deadlock.
func reportOrderCycles(pass *ModulePass, edges map[[2]string]orderEdge) {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	for _, scc := range sccs(nodes, adj) {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[string]bool, len(scc))
		for _, id := range scc {
			inSCC[id] = true
		}
		var cyc []orderEdge
		for _, k := range keys {
			if inSCC[k[0]] && inSCC[k[1]] {
				cyc = append(cyc, edges[k])
			}
		}
		// Report at the earliest witness site; the message walks every
		// edge of the component so the inversion is visible in one read.
		rep := cyc[0]
		for _, e := range cyc[1:] {
			if posLess(pass.Fset(), e.pos, rep.pos) {
				rep = e
			}
		}
		var parts []string
		var path []string
		for _, e := range cyc {
			parts = append(parts, fmt.Sprintf("%s is acquired at %s (in %s) while holding %s",
				e.to, shortPos(pass.Fset(), e.pos), e.fn.Name, e.from))
			if len(e.chain) > 0 {
				path = append(path, fmt.Sprintf("%s → %s via %s",
					e.from, e.to, strings.Join(e.chain, " → ")))
			} else {
				path = append(path, fmt.Sprintf("%s → %s in %s", e.from, e.to, e.fn.Name))
			}
		}
		pass.ReportPathf(rep.pos, path,
			"potential deadlock: inconsistent lock order between %s: %s (//harmony:allow lockorder <reason> to permit)",
			strings.Join(scc, ", "), strings.Join(parts, "; "))
	}
}

// shortPos renders a position as base-filename:line for messages.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// sccs computes strongly connected components (Tarjan), visiting nodes
// in sorted order so the output is deterministic. Components are
// returned with their members sorted.
func sccs(nodes map[string]bool, adj map[string][]string) [][]string {
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var out [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			out = append(out, comp)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
