package lint

// LockedField infers and enforces mutex-guarded struct fields. Per
// function it runs the must-held lockset analysis (intersection merge:
// a lock counts only when held on every path) and records, for every
// struct field access in the covered packages, which locks rooted at
// the same base expression were held. A field accessed under the same
// mutex on more than 80% of its accesses — with at least one guarded
// write — earns that mutex as its inferred guard, and the remaining
// unguarded accesses are findings. The contract can be made explicit
// with a field annotation:
//
//	mu sync.Mutex
//	//harmony:guardedby(mu)
//	stats Stats
//
// which switches the field to strict mode: every access outside the
// owning type's constructors must hold the guard.
//
// Lock context flows across calls: an unexported method whose every
// static call site holds e.mu analyzes with that lock in its entry
// fact (the locked-helper pattern), and a function literal inherits the
// locks held where it is defined — except goroutine literals, which
// start on a fresh stack. Constructor functions (anything containing a
// composite literal of the owning type) are exempt: the value is not
// shared yet.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

var LockedField = &Analyzer{
	Name: "lockedfield",
	Doc: "infer mutex-guarded struct fields (>80% of accesses locked) and flag the " +
		"unguarded paths; //harmony:guardedby(mu) makes the contract strict",
	RunModule: runLockedField,
}

const guardedByMarker = "harmony:guardedby"

// lfAccess is one field access with its lock context.
type lfAccess struct {
	pos    token.Pos
	write  bool
	guards []string // field names of held locks sharing the access base
}

// lfGroup aggregates accesses to one field of one type.
type lfGroup struct {
	key      string // "daemon.Engine.stats"
	declared string // annotated guard field name, "" when inferred
	accesses []lfAccess
}

func runLockedField(pass *ModulePass) {
	covered := func(pkgPath string) bool { return pass.InScope(ScopeRelease, pkgPath) }
	declared := collectGuardedBy(pass)
	entries := computeEntryLocksets(pass)

	groups := make(map[string]*lfGroup)
	group := func(key string) *lfGroup {
		g, ok := groups[key]
		if !ok {
			g = &lfGroup{key: key}
			if d, isDecl := declared[key]; isDecl {
				g.declared = d
			}
			groups[key] = g
		}
		return g
	}

	for _, n := range pass.Graph.Funcs {
		if !covered(n.Pkg.Path) {
			continue
		}
		made := composedTypes(n)
		writes := writeSelectors(n.Body())
		walkLocksets(n, n.MustLocks(entries[n]), func(_ *Block, nd ast.Node, held heldLocks) {
			walkNodeOps(nd, func(m ast.Node) {
				sel, ok := m.(*ast.SelectorExpr)
				if !ok {
					return
				}
				selection, ok := n.Pkg.Info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return
				}
				owner := namedStructOf(n.Pkg.Info.Types[sel.X].Type)
				if owner == nil || owner.Obj().Pkg() == nil || !covered(owner.Obj().Pkg().Path()) {
					return
				}
				if made[owner] {
					return // constructor: the value is not shared yet
				}
				if tv, ok := n.Pkg.Info.Types[sel]; ok && mutexishType(tv.Type) {
					return // the guard itself, WaitGroups, etc.
				}
				base := types.ExprString(sel.X)
				var guards []string
				for _, h := range sortedHeld(held) {
					if h.Ref.Base == base && strings.HasPrefix(h.Ref.Instance, base+".") {
						guards = append(guards, h.Ref.Instance[len(base)+1:])
					}
				}
				g := group(globalFieldName(owner, sel.Sel.Name))
				g.accesses = append(g.accesses, lfAccess{
					pos:    sel.Pos(),
					write:  writes[sel.Pos()],
					guards: guards,
				})
			})
		})
	}

	reportGuardFindings(pass, groups)
}

// reportGuardFindings turns the per-field access aggregates into
// diagnostics: strict checks for annotated fields, ratio-inferred
// checks for the rest.
func reportGuardFindings(pass *ModulePass, groups map[string]*lfGroup) {
	for _, k := range sortedKeys(groups) {
		g := groups[k]
		if g.declared != "" {
			for _, a := range g.accesses {
				if !slices.Contains(a.guards, g.declared) {
					pass.Reportf(a.pos,
						"field %s is annotated //harmony:guardedby(%s) but this access does not hold %s on every path (//harmony:allow lockedfield <reason> to permit)",
						g.key, g.declared, g.declared)
				}
			}
			continue
		}
		// Inference: the dominant guard must cover >80% of accesses and
		// at least one write; read-only (immutable-after-construction)
		// fields never infer a guard.
		guardCount := make(map[string]int)
		guardedWrites := 0
		for _, a := range g.accesses {
			for _, name := range a.guards {
				guardCount[name]++
			}
			if a.write && len(a.guards) > 0 {
				guardedWrites++
			}
		}
		best, bestN := "", 0
		for _, name := range sortedKeys(guardCount) {
			if guardCount[name] > bestN {
				best, bestN = name, guardCount[name]
			}
		}
		total := len(g.accesses)
		if best == "" || guardedWrites == 0 || bestN == total ||
			float64(bestN)/float64(total) <= 0.8 {
			continue
		}
		for _, a := range g.accesses {
			if slices.Contains(a.guards, best) {
				continue
			}
			pass.Reportf(a.pos,
				"field %s is accessed under %s on %d of %d accesses (inferred guard) but not here — hold the lock or make the contract explicit with //harmony:guardedby(%s) (//harmony:allow lockedfield <reason> to permit)",
				g.key, best, bestN, total, best)
		}
	}
}

// collectGuardedBy parses //harmony:guardedby(mu) field annotations in
// the covered packages, validating that the named guard is a sibling
// field. Returns field key → guard field name.
func collectGuardedBy(pass *ModulePass) map[string]string {
	out := make(map[string]string)
	pass.inspectFiles(func(pkg *Package, a ast.Node) bool {
		if !pass.InScope(ScopeRelease, pkg.Path) {
			return false
		}
		ts, ok := a.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
		if !ok {
			return true
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			return true
		}
		fieldNames := make(map[string]bool)
		for _, fld := range st.Fields.List {
			for _, name := range fld.Names {
				fieldNames[name.Name] = true
			}
		}
		for _, fld := range st.Fields.List {
			guard, pos, ok := guardedByDirective(fld)
			if !ok {
				continue
			}
			if !fieldNames[guard] {
				pass.Reportf(pos,
					"//harmony:guardedby(%s) names no field of %s", guard, ts.Name.Name)
				continue
			}
			for _, name := range fld.Names {
				out[globalFieldName(named, name.Name)] = guard
			}
		}
		return true
	})
	return out
}

// guardedByDirective extracts the guard name from a field's doc or
// line comment: `//harmony:guardedby(mu)` or `//harmony:guardedby mu`.
func guardedByDirective(fld *ast.Field) (string, token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			args, ok := commentDirective(c, guardedByMarker)
			if !ok {
				// The (mu) form parses as part of the marker word.
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if args, ok = strings.CutPrefix(text, guardedByMarker); !ok || !strings.HasPrefix(args, "(") {
					continue
				}
			}
			args = strings.TrimSpace(args)
			if strings.HasPrefix(args, "(") {
				args, _, _ = strings.Cut(args[1:], ")")
			} else if fs := strings.Fields(args); len(fs) > 0 {
				args = fs[0]
			}
			args = strings.TrimSpace(args)
			if args != "" {
				return args, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// composedTypes lists the named struct types a function builds with
// composite literals — its "constructor for" set.
func composedTypes(n *Node) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	forEachOwnNode(n.Body(), func(a ast.Node) {
		cl, ok := a.(*ast.CompositeLit)
		if !ok {
			return
		}
		if tv, ok := n.Pkg.Info.Types[cl]; ok {
			if named := namedStructOf(tv.Type); named != nil {
				out[named] = true
			}
		}
	})
	return out
}

// writeSelectors records the positions of selector expressions on the
// left-hand side of assignments and inc/dec statements.
func writeSelectors(body ast.Node) map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	mark := func(x ast.Expr) {
		ast.Inspect(x, func(m ast.Node) bool {
			if sel, ok := m.(*ast.SelectorExpr); ok {
				out[sel.Pos()] = true
			}
			return true
		})
	}
	forEachOwnNode(body, func(a ast.Node) {
		switch s := a.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(s.X)
		}
	})
	return out
}

// computeEntryLocksets propagates lock context into callees: an
// unexported method every one of whose static call sites holds a lock
// rooted at the call receiver starts its analysis with that lock held,
// and a function literal starts with the locks held at its definition
// point (none for goroutine literals). Iterated to a fixed point so
// locked helpers calling locked helpers resolve.
func computeEntryLocksets(pass *ModulePass) map[*Node]heldLocks {
	g := pass.Graph
	entries := make(map[*Node]heldLocks)

	for iter := 0; iter < 4; iter++ {
		proposals := make(map[*Node][]heldLocks)
		litEntries := make(map[*Node]heldLocks)
		for _, n := range g.Funcs {
			if !pass.InScope(ScopeRelease, n.Pkg.Path) {
				continue
			}
			walkLocksets(n, n.MustLocks(entries[n]), func(_ *Block, nd ast.Node, held heldLocks) {
				goLits := goStmtLits(nd)
				walkNodeOps(nd, func(m ast.Node) {
					if lit, ok := m.(*ast.FuncLit); ok {
						if ln := g.NodeOfLit(lit); ln != nil && !goLits[lit] {
							litEntries[ln] = maps.Clone(held)
						}
						return
					}
					call, ok := m.(*ast.CallExpr)
					if !ok || len(held) == 0 {
						return
					}
					for _, e := range n.EdgesAt(call.Pos()) {
						if e.Kind != EdgeCall || e.Dynamic || e.Callee.Fn == nil {
							continue
						}
						if remapped, ok := remapToCallee(call, e.Callee, held); ok {
							proposals[e.Callee] = append(proposals[e.Callee], remapped)
						}
					}
				})
			})
		}

		next := make(map[*Node]heldLocks)
		for _, n := range g.Funcs {
			if n.Lit != nil {
				if h, ok := litEntries[n]; ok && len(h) > 0 {
					next[n] = h
				}
				continue
			}
			if n.Fn == nil || ast.IsExported(n.Fn.Name()) {
				continue
			}
			props := proposals[n]
			if len(props) == 0 {
				continue
			}
			// Every in-edge must be a static call we proposed for;
			// otherwise an unknown caller may not hold the lock.
			staticCalls := 0
			clean := true
			for _, e := range n.In {
				if e.Kind != EdgeCall || e.Dynamic {
					clean = false
					break
				}
				staticCalls++
			}
			if !clean || staticCalls != len(props) {
				continue
			}
			entry := props[0]
			for _, p := range props[1:] {
				entry = (lockProblem{must: true}).Merge(entry, p)
			}
			if len(entry) > 0 {
				next[n] = entry
			}
		}
		if entrySetsEqual(entries, next) {
			break
		}
		entries = next
	}
	return entries
}

// goStmtLits marks function literals spawned directly by a go statement
// under nd: they start on a fresh stack and inherit no locks.
func goStmtLits(nd ast.Node) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(nd, func(m ast.Node) bool {
		if gs, ok := m.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// remapToCallee rewrites the caller-side held set into the callee's
// frame: locks rooted at the call's receiver expression become locks
// rooted at the callee's receiver name. Calls that are not method calls
// on a named receiver propose nothing.
func remapToCallee(call *ast.CallExpr, callee *Node, held heldLocks) (heldLocks, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || callee.Decl == nil || callee.Decl.Recv == nil ||
		len(callee.Decl.Recv.List) != 1 || len(callee.Decl.Recv.List[0].Names) != 1 {
		return nil, false
	}
	recvName := callee.Decl.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return nil, false
	}
	base := types.ExprString(sel.X)
	out := make(heldLocks)
	for _, h := range sortedHeld(held) {
		if h.Ref.Base != base || !strings.HasPrefix(h.Ref.Instance, base+".") {
			continue
		}
		suffix := h.Ref.Instance[len(base):]
		ref := h.Ref
		ref.Instance = recvName + suffix
		ref.Base = recvName
		out[ref.Instance] = lockAcq{Pos: h.Pos, Ref: ref, Kind: h.Kind}
	}
	return out, true
}

func entrySetsEqual(a, b map[*Node]heldLocks) bool {
	if len(a) != len(b) {
		return false
	}
	for n, ha := range a {
		hb, ok := b[n]
		if !ok || !heldEqual(ha, hb) {
			return false
		}
	}
	return true
}
