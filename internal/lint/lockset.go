package lint

// Shared machinery for the flow-sensitive concurrency analyzers:
// mutex/channel identity resolution, recognition of sync primitive and
// blocking calls, and the may-held lockset dataflow problem deferclose
// runs over function CFGs.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// lockRef identifies one mutex value at a program point.
//
// Instance is the receiver expression as written ("e.mu", "g.mu",
// "v.m.vec.mu") — the per-function identity locksets are keyed by.
// Global is the cross-function identity for struct fields and package
// variables ("daemon.Engine.mu", "tenant.Multi.mu", "metrics.vec.mu"),
// or "" for locals and parameters, which have no stable module-wide
// name.
type lockRef struct {
	Instance string
	Global   string
}

// lockAcq is one acquisition: where, and of what.
type lockAcq struct {
	Pos  token.Pos
	Ref  lockRef
	Kind string // "Lock" or "RLock"
}

// heldLocks maps lock Instance keys to their acquisition. Facts are
// immutable: transfer functions clone before editing.
type heldLocks map[string]lockAcq

// sortedHeld returns the held set ordered by Instance for deterministic
// iteration and message rendering.
func sortedHeld(h heldLocks) []lockAcq {
	out := make([]lockAcq, 0, len(h))
	for _, k := range sortedKeys(h) {
		out = append(out, h[k])
	}
	return out
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

// importPathOf resolves the import path behind a selector base, or ""
// when the expression is not a package qualifier.
func importPathOf(pkg *Package, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// mutexOp recognizes sync mutex method calls. recv is the receiver
// expression ("e.mu" in e.mu.Lock()); kind is one of Lock, RLock,
// Unlock, RUnlock.
func mutexOp(pkg *Package, e ast.Node) (recv ast.Expr, kind string, ok bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return nil, "", false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// namedStructOf strips pointers and reports the named struct type of t,
// if any.
func namedStructOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return named
}

// globalFieldName renders the module-wide identity of a struct field:
// "daemon.Engine.mu".
func globalFieldName(named *types.Named, field string) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return pathBase(obj.Pkg().Path()) + "." + obj.Name() + "." + field
}

// resolveLockRef names the mutex behind a receiver expression.
func resolveLockRef(pkg *Package, x ast.Expr) lockRef {
	ref := lockRef{Instance: types.ExprString(x)}
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if tv, ok := pkg.Info.Types[x.X]; ok {
			if named := namedStructOf(tv.Type); named != nil {
				ref.Global = globalFieldName(named, x.Sel.Name)
			}
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				ref.Global = pathBase(v.Pkg().Path()) + "." + v.Name()
			}
		}
	}
	return ref
}

// chanIdentity names a channel expression: a module-wide name for
// struct fields and package vars ("" otherwise), plus the object for
// local identity when the expression is a bare identifier.
func chanIdentity(pkg *Package, x ast.Expr) (global string, obj types.Object) {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if tv, ok := pkg.Info.Types[x.X]; ok {
			if named := namedStructOf(tv.Type); named != nil {
				return globalFieldName(named, x.Sel.Name), nil
			}
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return pathBase(v.Pkg().Path()) + "." + v.Name(), v
			}
			return "", v
		}
	}
	return "", nil
}

// walkNodeOps visits n and its descendants in source order, skipping
// function literal bodies (their statements execute on their own CFG;
// the literal itself is still visited) and deferred calls (which
// execute at function exit, not here).
func walkNodeOps(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			fn(m)
			return false
		}
		if _, isDefer := m.(*ast.DeferStmt); isDefer && m != n {
			return false
		}
		fn(m)
		return true
	})
}

// applyLockOps folds one CFG node into a held-lockset. Deferred
// unlocks are ignored: under held-span semantics a lock released only
// by defer stays held until function exit, which is exactly what the
// blocking-under-lock check needs.
func applyLockOps(pkg *Package, n ast.Node, fact heldLocks) heldLocks {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return fact
	}
	out := fact
	mutated := false
	walkNodeOps(n, func(m ast.Node) {
		recv, kind, ok := mutexOp(pkg, m)
		if !ok {
			return
		}
		ref := resolveLockRef(pkg, recv)
		if !mutated {
			out = maps.Clone(out)
			mutated = true
		}
		switch kind {
		case "Lock", "RLock":
			if _, held := out[ref.Instance]; !held {
				out[ref.Instance] = lockAcq{Pos: m.Pos(), Ref: ref, Kind: kind}
			}
		case "Unlock", "RUnlock":
			delete(out, ref.Instance)
		}
	})
	return out
}

// lockProblem is the forward may-held lockset analysis: the union merge
// tracks locks held on some path into a node (blocking and nested
// acquisitions under a lock), from an empty entry.
type lockProblem struct {
	plainEdges[heldLocks]
	pkg *Package
}

func (p lockProblem) Boundary() heldLocks { return make(heldLocks) }

func (p lockProblem) Transfer(b *Block, in heldLocks) heldLocks {
	out := in
	for _, n := range b.Nodes {
		out = applyLockOps(p.pkg, n, out)
	}
	return out
}

func (p lockProblem) Merge(a, b heldLocks) heldLocks {
	out := maps.Clone(a)
	for k, vb := range b {
		if va, ok := out[k]; !ok || vb.Pos < va.Pos {
			out[k] = vb
		}
	}
	return out
}

func (p lockProblem) Equal(a, b heldLocks) bool {
	return maps.EqualFunc(a, b, func(va, vb lockAcq) bool { return va.Pos == vb.Pos && va.Kind == vb.Kind })
}

// blockingOp recognizes calls that can block indefinitely: net/http
// round-trips, time.Sleep, and sync.WaitGroup.Wait. Channel operations
// and selects are recognized structurally by the callers.
func blockingOp(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkgPath := importPathOf(pkg, sel.X); pkgPath != "" {
		switch {
		case pkgPath == "net/http":
			return "net/http." + sel.Sel.Name + " round-trip", true
		case pkgPath == "time" && sel.Sel.Name == "Sleep":
			return "time.Sleep", true
		}
		return "", false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return "", false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	named := namedStructOf(recv.Type())
	if named == nil {
		return "", false
	}
	owner := named.Obj()
	switch {
	case fn.Pkg().Path() == "net/http" && owner.Name() == "Client":
		return "http.Client." + fn.Name() + " round-trip", true
	case fn.Pkg().Path() == "sync" && owner.Name() == "WaitGroup" && fn.Name() == "Wait":
		return "WaitGroup.Wait", true
	}
	return "", false
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// describeLock renders a lock for messages: the Global name when the
// lock has one, the instance expression otherwise.
func describeLock(ref lockRef) string {
	if ref.Global != "" {
		return ref.Global
	}
	return ref.Instance
}

// summaryEdgeOK filters call-graph edges for interprocedural lock
// summaries: normal call/defer edges, excluding goroutine spawns (the
// spawnee runs on its own stack, caller locks are not held there) and
// dynamic dispatch except provably-local closures (CHA candidate sets
// would manufacture nested acquisitions that no execution takes).
func summaryEdgeOK(e *Edge) bool {
	if e.Kind == EdgeGo {
		return false
	}
	if !e.Dynamic {
		return true
	}
	return e.Via == "closure" || e.Via == "local closure"
}
