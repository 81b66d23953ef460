package lint

// DeferClose is the CFG-accurate successor of the mutexspan analyzer.
// It proves, per function, two release disciplines:
//
//  1. Every acquired resource — a locked mutex, a time.Ticker/Timer, an
//     opened file, an http response — is released on every path that
//     reaches the function exit. Releases may be explicit (Unlock,
//     Stop, Close) or deferred; a deferred release covers every path
//     from its registration point. Ownership transfer is recognized
//     leniently: returning the resource, passing it to another call, or
//     storing it somewhere kills the obligation, as does returning the
//     error value the acquisition produced (the error path where the
//     resource was never valid).
//
//  2. No blocking operation — channel send/receive, select without
//     default, range over a channel, WaitGroup.Wait, time.Sleep,
//     net/http round-trips — runs while a mutex is held. Here deferred
//     unlocks do NOT release: a lock held to function exit is held at
//     the blocking site. Taking a second lock blocks too: a Lock/RLock
//     while any lock may be held, or a call whose callee takes a
//     module-wide lock, itself or through its callees. Locks are never
//     nested, so no two paths can take them in opposite orders and no
//     lock-order deadlock can form.
//
// Both checks are flow-sensitive: a resource released on one branch and
// leaked on another is reported with the leaking side's position.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

var DeferClose = &Analyzer{
	Name: "deferclose",
	Doc: "require every acquired resource (locks, tickers, files, response bodies) to be " +
		"released on all paths, and forbid blocking calls and nested lock acquisitions while a mutex is held",
	RunModule: runDeferClose,
}

// resAcq is one outstanding release obligation.
type resAcq struct {
	Pos     token.Pos
	What    string       // rendered resource name for messages
	Release string       // the expected releasing call, for messages
	Obj     types.Object // the variable holding the resource (nil for locks)
	ErrObj  types.Object // the error result of the acquisition, if any
}

// openRes maps resource keys ("lock:e.mu" or "var:<def pos>") to their
// acquisition. The may-analysis union keeps a resource open if any
// incoming path left it open.
type openRes map[string]resAcq

// runDeferClose checks every in-scope function; literals run the same
// checks on their own CFGs.
func runDeferClose(pass *ModulePass) {
	takers := make(lockTakers)
	for _, n := range pass.Graph.Funcs {
		if pass.InScope(ScopeRelease, n.Pkg.Path) {
			checkFuncResources(pass, n)
			checkFuncBlocking(pass, n, takers)
		}
	}
}

// resProblem is the forward may-open-resource analysis.
type resProblem struct {
	plainEdges[openRes]
	pkg *Package
}

func (p resProblem) Boundary() openRes { return make(openRes) }

func (p resProblem) Transfer(b *Block, in openRes) openRes {
	out := in
	for _, n := range b.Nodes {
		out = applyResOps(p.pkg, n, out)
	}
	return out
}

func (p resProblem) Merge(a, b openRes) openRes {
	out := maps.Clone(a)
	for k, vb := range b {
		if va, ok := out[k]; !ok || vb.Pos < va.Pos {
			out[k] = vb
		}
	}
	return out
}

func (p resProblem) Equal(a, b openRes) bool {
	return maps.EqualFunc(a, b, func(va, vb resAcq) bool { return va.Pos == vb.Pos })
}

// applyResOps folds one CFG node into the open-resource fact.
func applyResOps(pkg *Package, n ast.Node, in openRes) openRes {
	out := in
	// Clone lazily, on the first mutation of this node.
	mutate := func() {
		if sameMap(out, in) {
			out = maps.Clone(out)
		}
	}

	// A defer releases at registration for this discipline: every path
	// from here to exit runs it. Any resource or lock the deferred call
	// mentions is considered released.
	if d, ok := n.(*ast.DeferStmt); ok {
		ast.Inspect(d, func(m ast.Node) bool {
			if recv, kind, ok := mutexOp(pkg, m); ok && (kind == "Unlock" || kind == "RUnlock") {
				ref := resolveLockRef(pkg, recv)
				if _, held := out["lock:"+ref.Instance]; held {
					mutate()
					delete(out, "lock:"+ref.Instance)
				}
			}
			if id, ok := m.(*ast.Ident); ok {
				if key, tracked := trackedKeyOf(pkg, out, id); tracked {
					mutate()
					delete(out, key)
				}
			}
			return true
		})
		return out
	}

	walkNodeOps(n, func(m ast.Node) {
		// Mutex acquire/release.
		if recv, kind, ok := mutexOp(pkg, m); ok {
			ref := resolveLockRef(pkg, recv)
			key := "lock:" + ref.Instance
			switch kind {
			case "Lock", "RLock":
				if _, held := out[key]; !held {
					mutate()
					rel := "Unlock"
					if kind == "RLock" {
						rel = "RUnlock"
					}
					out[key] = resAcq{Pos: m.Pos(), What: ref.Instance + " (" + kind + ")", Release: rel}
				}
			case "Unlock", "RUnlock":
				if _, held := out[key]; held {
					mutate()
					delete(out, key)
				}
			}
			return
		}
		// Release methods: x.Close(), x.Stop(), resp.Body.Close().
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Close", "Stop":
					if id := rootIdent(sel.X); id != nil {
						if key, tracked := trackedKeyOf(pkg, out, id); tracked {
							mutate()
							delete(out, key)
							return
						}
					}
				}
			}
		}
	})

	// Acquisitions: `x, err := acquire(...)` / `x := acquire(...)`.
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if what, release, ok := resourceAcquisition(pkg, call); ok {
				var obj, errObj types.Object
				if len(as.Lhs) > 0 {
					obj = lhsObj(pkg, as.Lhs[0])
				}
				if len(as.Lhs) > 1 {
					errObj = lhsObj(pkg, as.Lhs[1])
				}
				if obj != nil {
					mutate()
					key := "var:" + obj.Name() + "@" + strconv.Itoa(int(obj.Pos())) // unique per definition site
					out[key] = resAcq{Pos: call.Pos(), What: what, Release: release, Obj: obj, ErrObj: errObj}
				}
			}
		}
	}

	// Escape / ownership transfer: a remaining *bare* mention of a
	// tracked variable hands it to someone else (a call argument, a
	// return value, a store), and returning the acquisition's error
	// value is the path where the resource was never valid. Both kill
	// the obligation. Selector-rooted uses (t.C, resp.StatusCode) only
	// read through the resource and keep it tracked.
	protected := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		if sel, ok := m.(*ast.SelectorExpr); ok {
			if id := rootIdent(sel.X); id != nil {
				protected[id] = true
			}
		}
		return true
	})
	_, isReturn := n.(*ast.ReturnStmt)
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, isLit := m.(*ast.FuncLit); isLit {
			// A closure capturing the resource takes over its lifetime.
			for _, obj := range capturedIn(pkg, lit) {
				if key, tracked := trackedObjKey(out, obj); tracked {
					mutate()
					delete(out, key)
				}
			}
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		for key, acq := range out {
			if acq.Obj == obj && m.Pos() > acq.Pos && !protected[id] {
				mutate()
				delete(out, key)
			} else if acq.ErrObj != nil && acq.ErrObj == obj && isReturn {
				mutate()
				delete(out, key)
			}
		}
		return true
	})
	return out
}

func sameMap(a, b openRes) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// rootIdent walks selector chains to their base identifier: resp in
// resp.Body, t in t.C.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return nil
		}
	}
}

func lhsObj(pkg *Package, x ast.Expr) types.Object {
	id, ok := x.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

// trackedKeyOf resolves an identifier use to a tracked resource key.
func trackedKeyOf(pkg *Package, open openRes, id *ast.Ident) (string, bool) {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		return "", false
	}
	return trackedObjKey(open, obj)
}

func trackedObjKey(open openRes, obj types.Object) (string, bool) {
	for key, acq := range open {
		if acq.Obj == obj {
			return key, true
		}
	}
	return "", false
}

// capturedIn lists the objects a function literal references.
func capturedIn(pkg *Package, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// resourceAcquisition recognizes calls that hand back a resource with a
// release obligation.
func resourceAcquisition(pkg *Package, call *ast.CallExpr) (what, release string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	if pkgPath := importPathOf(pkg, sel.X); pkgPath != "" {
		switch {
		case pkgPath == "time" && (sel.Sel.Name == "NewTicker" || sel.Sel.Name == "NewTimer"):
			return "time." + sel.Sel.Name, "Stop", true
		case pkgPath == "os" && (sel.Sel.Name == "Open" || sel.Sel.Name == "Create" || sel.Sel.Name == "OpenFile"):
			return "os." + sel.Sel.Name, "Close", true
		case pkgPath == "net/http" && (sel.Sel.Name == "Get" || sel.Sel.Name == "Post" ||
			sel.Sel.Name == "Head" || sel.Sel.Name == "PostForm"):
			return "http." + sel.Sel.Name + " response body", "Body.Close", true
		}
		return "", "", false
	}
	// client.Do / client.Get …: method on *http.Client.
	if selection, okSel := pkg.Info.Selections[sel]; okSel {
		if fn, okFn := selection.Obj().(*types.Func); okFn && fn.Pkg() != nil {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named := namedStructOf(recv.Type()); named != nil &&
					fn.Pkg().Path() == "net/http" && named.Obj().Name() == "Client" {
					return "http.Client." + fn.Name() + " response body", "Body.Close", true
				}
			}
		}
	}
	return "", "", false
}

// checkFuncResources reports resources still open on some path reaching
// the function exit.
func checkFuncResources(pass *ModulePass, n *Node) {
	cfg := n.CFG()
	sol := Solve[openRes](cfg, resProblem{pkg: n.Pkg})

	// Walk exit predecessors: each carries the facts of the paths that
	// end there. Report once per resource, at the acquisition.
	type leak struct {
		acq   resAcq
		retAt token.Pos
	}
	leaks := make(map[string]leak)
	for _, pred := range cfg.Exit.Preds {
		fact, ok := sol.Out[pred]
		if !ok {
			continue
		}
		at := blockEndPos(pred)
		for key, acq := range fact {
			if old, seen := leaks[key]; !seen || at < old.retAt {
				leaks[key] = leak{acq: acq, retAt: at}
			}
		}
	}
	keys := make([]string, 0, len(leaks))
	for k := range leaks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return leaks[keys[i]].acq.Pos < leaks[keys[j]].acq.Pos })
	for _, k := range keys {
		l := leaks[k]
		where := "the function returns"
		if l.retAt != token.NoPos {
			where = "the return at " + shortPos(pass.Fset(), l.retAt)
		}
		pass.Reportf(l.acq.Pos,
			"%s acquired here is not released on every path: %s without %s — release it or defer the release at acquisition (//harmony:allow deferclose <reason> to permit)",
			l.acq.What, where, l.acq.Release)
	}
}

// blockEndPos is the position of the block's last node (the return, for
// return blocks).
func blockEndPos(blk *Block) token.Pos {
	if len(blk.Nodes) > 0 {
		return blk.Nodes[len(blk.Nodes)-1].Pos()
	}
	if blk.Term != nil {
		return blk.Term.Pos()
	}
	return token.NoPos
}

// checkFuncBlocking reports blocking operations while a mutex is held.
// Locks released only by defer stay held to the exit — exactly the
// semantics the held-span lockset implements.
func checkFuncBlocking(pass *ModulePass, n *Node, takers lockTakers) {
	sol := n.MayLocks()
	walkLocksets(n, sol, func(blk *Block, nd ast.Node, held heldLocks) {
		if len(held) == 0 || nd == blk.Comm {
			return
		}
		if what, ok := blockingNode(n, nd, takers); ok {
			reportBlocked(pass, nd.Pos(), what, held)
		}
	})
	// The terminator blocks too: a select without default, a range over
	// a channel.
	for _, blk := range n.CFG().Blocks {
		out := sol.Out[blk]
		if len(out) == 0 {
			continue
		}
		switch t := blk.Term.(type) {
		case *ast.SelectStmt:
			if !selectHasDefault(t) {
				reportBlocked(pass, t.Pos(), "select", out)
			}
		case *ast.RangeStmt:
			if tv, ok := n.Pkg.Info.Types[t.X]; ok && isChanType(tv.Type) {
				reportBlocked(pass, t.Pos(), "range over channel", out)
			}
		}
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingNode recognizes blocking operations inside one CFG node of fn:
// channel operations, blocking calls, lock acquisitions, and calls whose
// callee takes a module-wide lock.
func blockingNode(fn *Node, n ast.Node, takers lockTakers) (string, bool) {
	found := ""
	walkNodeOps(n, func(m ast.Node) {
		if found != "" {
			return
		}
		switch v := m.(type) {
		case *ast.SendStmt:
			found = "channel send"
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = "channel receive"
			}
		case *ast.CallExpr:
			if recv, kind, ok := mutexOp(fn.Pkg, v); ok {
				if kind == "Lock" || kind == "RLock" {
					found = kind + " of " + describeLock(resolveLockRef(fn.Pkg, recv))
				}
				return
			}
			if what, ok := blockingOp(fn.Pkg, v); ok {
				found = what
				return
			}
			for _, e := range fn.EdgesAt(v.Pos()) {
				if !summaryEdgeOK(e) {
					continue
				}
				if ids := takers.via(e.Callee); len(ids) > 0 {
					found = "call to " + e.Callee.Name + ", which takes " + strings.Join(ids, ", ") + ","
					return
				}
			}
		}
	})
	return found, found != ""
}

// lockTakers memoizes, per function, the module-wide locks a call to it
// may take: its own acquisitions (deferred ones excluded — they run at
// its exit) and, transitively, those of its callees along
// summaryEdgeOK edges. Locals and parameters have no module-wide name
// and take part only in their own function's lockset.
type lockTakers map[*Node][]string

func (lt lockTakers) via(callee *Node) []string {
	if ids, ok := lt[callee]; ok {
		return ids
	}
	set := make(map[string]bool)
	seen := map[*Node]bool{callee: true}
	for stack := []*Node{callee}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		walkNodeOps(n.Body(), func(a ast.Node) {
			if recv, kind, ok := mutexOp(n.Pkg, a); ok && (kind == "Lock" || kind == "RLock") {
				if id := resolveLockRef(n.Pkg, recv).Global; id != "" {
					set[id] = true
				}
			}
		})
		for _, e := range n.Out {
			if summaryEdgeOK(e) && !seen[e.Callee] {
				seen[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	lt[callee] = sortedKeys(set)
	return lt[callee]
}

func reportBlocked(pass *ModulePass, pos token.Pos, what string, held heldLocks) {
	hs := sortedHeld(held)
	h := hs[0]
	pass.Reportf(pos,
		"blocking %s while holding %s (acquired at %s): a blocked lock holder stalls every reader of the control plane (//harmony:allow deferclose <reason> to permit)",
		what, describeLock(h.Ref), shortPos(pass.Fset(), h.Pos))
}

// shortPos renders a position as base-filename:line for messages.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
