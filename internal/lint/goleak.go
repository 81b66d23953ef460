package lint

import (
	"go/ast"
	"go/token"
)

// GoLeak is the goroutine-lifetime analyzer: every goroutine spawned in
// the concurrent subsystems — the daemon, the tenant fan-out and the
// facade's per-policy fan-out — must be joined, and must be able to end.
//
// Joined: somewhere reachable in the spawned function (following call
// and defer edges through the module) there must be a
// sync.WaitGroup.Done, a send on a collector channel (the errgroup
// shape), or a receive/select on a cancellation channel. A goroutine
// with none of these can outlive every tick and leak; in the daemon that
// is memory growth and a shutdown that never drains. Nested go statements
// do not count as join evidence for their spawner (the inner goroutine
// joining says nothing about the outer one), and a goroutine spawned
// through a bare function value is unprovable by construction and always
// flagged.
//
// Able to end — the flow-sensitive half. Touching a join signal
// somewhere is not proof the goroutine can actually *terminate*:
//
//   - Every CFG block of the spawned function (and of everything it
//     reaches through call edges) that is reachable from the entry must
//     have a path to the function exit. A `for { ... }` or `select{}`
//     with no break/return can never observe ctx cancellation and runs
//     until process death.
//   - A worker loop `for x := range ch` whose only exit is channel
//     close (no break/return out of the loop body) requires somebody to
//     actually close the channel: if ch has a module-wide identity (a
//     struct field or package var) and no close(ch) exists anywhere in
//     the module, the worker outlives every shutdown.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "require every goroutine in daemon and tenant to have a " +
		"provable join (WaitGroup.Done, collector send, or cancellation receive) and a " +
		"terminating path: no inescapable loops, no ranges over channels nothing ever closes",
	RunModule: runGoLeak,
}

func runGoLeak(pass *ModulePass) {
	closed := moduleClosedChans(pass)
	reportedLoop := make(map[token.Pos]bool)  // inescapable-region reports
	reportedRange := make(map[token.Pos]bool) // never-closed-range reports

	for _, n := range pass.Graph.Funcs {
		if !pass.InScope(ScopeSpawn, n.Pkg.Path) {
			continue
		}
		// A go statement through a bare function value is unprovable by
		// construction, whatever candidate edges the graph resolved.
		for _, dp := range n.DynGo {
			pass.Reportf(dp,
				"goroutine spawned through a function value; its join cannot be proven — spawn a named function or literal with an explicit join (//harmony:allow goleak <reason> to permit)")
		}
		for _, e := range n.Out {
			if e.Kind != EdgeGo {
				continue
			}
			if e.Dynamic && e.Via == "function value" {
				continue // the DynGo site report covers this spawn
			}
			if !joinEvidence(e.Callee, make(map[*Node]bool)) {
				pass.Reportf(e.Pos,
					"goroutine %s has no provable join: no sync.WaitGroup.Done, channel send, or cancellation receive is reachable from its body; unjoined goroutines leak (//harmony:allow goleak <reason> to permit)",
					e.Callee.Name)
			}
			// Everything the goroutine reaches over call edges runs on
			// its stack; an inescapable loop anywhere below pins it.
			for _, f := range spawnReach(e.Callee) {
				checkInescapable(pass, n, f, reportedLoop)
				checkUnclosedRanges(pass, n, f, closed, reportedRange)
			}
		}
	}
}

// joinEvidence reports whether a join signal is reachable from node via
// call and defer edges (not nested go edges: an inner goroutine's join
// does not join the outer one).
func joinEvidence(node *Node, seen map[*Node]bool) bool {
	if seen[node] {
		return false
	}
	seen[node] = true

	// WaitGroup.Done anywhere in this body, including deferred.
	for _, ext := range node.Ext {
		fn := ext.Fn
		if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
			return true
		}
	}
	// Channel operations in this body: a send is the collector shape, a
	// receive, select, or range over a channel is the cancellation shape.
	found := false
	forEachOwnNode(node.Body(), func(a ast.Node) {
		switch v := a.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			found = found || v.Op == token.ARROW
		case *ast.RangeStmt:
			if tv, ok := node.Pkg.Info.Types[v.X]; ok && isChanType(tv.Type) {
				found = true
			}
		}
	})
	if found {
		return true
	}
	for _, e := range node.Out {
		if e.Kind != EdgeGo && joinEvidence(e.Callee, seen) {
			return true
		}
	}
	return false
}

// reached pairs a function reached from a spawn with its witness chain
// (spawned function first).
type reached struct {
	node  *Node
	chain []string
}

// spawnReach collects the functions reachable from the spawned callee
// over call/defer edges (not nested go edges: an inner goroutine runs
// on its own stack), each with a shortest witness chain. Deterministic:
// BFS in Out-edge order.
func spawnReach(callee *Node) []reached {
	seen := map[*Node]bool{callee: true}
	out := []reached{{node: callee, chain: []string{callee.Name}}}
	for i := 0; i < len(out); i++ {
		cur := out[i]
		for _, e := range cur.node.Out {
			if !summaryEdgeOK(e) || seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			chain := append(append([]string(nil), cur.chain...), e.Callee.Name)
			out = append(out, reached{node: e.Callee, chain: chain})
		}
	}
	return out
}

// checkInescapable reports CFG regions the goroutine can enter but
// never leave: reachable blocks with no path to the function exit.
func checkInescapable(pass *ModulePass, spawner *Node, f reached, reported map[token.Pos]bool) {
	cfg := f.node.CFG()
	fromEntry := cfg.ReachableFromEntry()
	toExit := cfg.CanReachExit()
	var at token.Pos
	for _, blk := range cfg.Blocks {
		if !fromEntry[blk] || toExit[blk] || blk == cfg.Exit {
			continue
		}
		pos := blockPos(blk)
		if pos == token.NoPos {
			continue
		}
		// Prefer the loop/select header of the region; the first
		// terminator block found in index order is exactly that.
		if at == token.NoPos || blk.Term != nil && pos < at {
			at = pos
		}
	}
	if at == token.NoPos || reported[at] {
		return
	}
	reported[at] = true
	pass.ReportPathf(at, f.chain,
		"goroutine %s (spawned in %s) can never terminate: no path from this point reaches return — add a ctx.Done()/done-channel case or a break (//harmony:allow goleak <reason> to permit)",
		f.node.Name, spawner.Name)
}

// checkUnclosedRanges reports `for range ch` worker loops whose only
// exit is a close that never happens anywhere in the module.
func checkUnclosedRanges(pass *ModulePass, spawner *Node, f reached, closed map[string]bool, reported map[token.Pos]bool) {
	cfg := f.node.CFG()
	for _, blk := range cfg.Blocks {
		rs, ok := blk.Term.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := f.node.Pkg.Info.Types[rs.X]
		if !ok || !isChanType(tv.Type) {
			continue
		}
		// The loop's done block: the head's non-body successor. Another
		// way in (break, labeled break) means the loop can exit without
		// a close.
		var done *Block
		for _, s := range blk.Succs {
			if s.Kind == "range.done" {
				done = s
			}
		}
		if done == nil {
			continue
		}
		escapes := false
		for _, p := range done.Preds {
			if p != blk {
				escapes = true
			}
		}
		if escapes {
			continue
		}
		// A body that returns or terminates also exits the loop.
		if bodyLeaves(cfg, blk, done) {
			continue
		}
		global, _ := chanIdentity(f.node.Pkg, rs.X)
		if global == "" || closed[global] || reported[rs.Pos()] {
			continue
		}
		reported[rs.Pos()] = true
		pass.ReportPathf(rs.Pos(), f.chain,
			"worker %s (spawned in %s) ranges over %s, but nothing in the module ever closes it: the loop cannot exit and the goroutine survives every shutdown — close the channel when draining is done (//harmony:allow goleak <reason> to permit)",
			f.node.Name, spawner.Name, global)
	}
}

// bodyLeaves reports whether the range body can leave the function (or
// end the process) without going back through the loop head: a return,
// goto out, or panic inside the body.
func bodyLeaves(cfg *CFG, head, done *Block) bool {
	// Blocks dominated by the loop: reachable from head's body successor
	// without passing through head or done.
	var body *Block
	for _, s := range head.Succs {
		if s.Kind == "range.body" {
			body = s
		}
	}
	if body == nil {
		return false
	}
	seen := map[*Block]bool{head: true, done: true}
	work := []*Block{body}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		if blk == cfg.Exit {
			return true
		}
		if len(blk.Succs) == 0 {
			return true // panic/os.Exit terminator: the loop ends with the process
		}
		work = append(work, blk.Succs...)
	}
	return false
}

// blockPos finds a representative position for a block: its terminator
// statement, else its first node.
func blockPos(blk *Block) token.Pos {
	if blk.Term != nil {
		return blk.Term.Pos()
	}
	for _, n := range blk.Nodes {
		return n.Pos()
	}
	return token.NoPos
}

// moduleClosedChans records every channel with a module-wide identity
// that some close() call targets.
func moduleClosedChans(pass *ModulePass) map[string]bool {
	out := make(map[string]bool)
	pass.inspectFiles(func(pkg *Package, a ast.Node) bool {
		call, ok := a.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "close" {
			return true
		}
		if global, _ := chanIdentity(pkg, call.Args[0]); global != "" {
			out[global] = true
		}
		return true
	})
	return out
}
