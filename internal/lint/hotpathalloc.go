package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc turns the control path's steady-state allocation contract
// — pinned dynamically by testing.AllocsPerRun — into a static guarantee
// with named culprits. A function whose doc comment carries
// `//harmony:hotpath` is a root: the root and everything it transitively
// calls (through call, defer, and go edges, including conservative
// interface and function-value dispatch) is scanned for allocating
// constructs:
//
//   - make and new
//   - &composite literals, and map/slice composite literals (their
//     backing store is heap-allocated)
//   - copy-grow append: `y = append(x, ...)` where y is not x (the
//     steady-state idiom `x = append(x, ...)` amortizes to zero and is
//     not flagged)
//   - closures that capture variables, and go statements (both allocate)
//   - non-constant string concatenation and string<->[]byte conversions
//   - calls into fmt and errors (Sprintf, Errorf, New all allocate)
//
// The descent stops at functions whose doc comment carries
// `//harmony:coldpath <reason>` — an explicit budget boundary for
// fallbacks, error paths, and measured residues (e.g. the predictor's
// fit, which TestPeriodScratchReuse budgets dynamically). Individual
// sites are excused with `//harmony:allow hotpathalloc <reason>`.
// Diagnostics name the hot-path root and the call chain to the culprit.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid allocating constructs in //harmony:hotpath functions and their " +
		"transitive callees (stop at //harmony:coldpath boundaries)",
	RunModule: runHotPathAlloc,
}

func runHotPathAlloc(pass *ModulePass) {
	// Union reachability from every hot-path root, visiting roots in
	// deterministic graph order so each function is scanned once and
	// attributed to a stable witness chain.
	parent := make(map[*Node]*Edge)
	visited := make(map[*Node]bool)
	var order []*Node
	var roots []*Node
	for _, n := range pass.Graph.Funcs {
		if n.HotPath {
			roots = append(roots, n)
		}
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if visited[n] || n.ColdPath {
			return
		}
		visited[n] = true
		order = append(order, n)
		for _, e := range n.Out {
			if !visited[e.Callee] && !e.Callee.ColdPath {
				parent[e.Callee] = e
				walk(e.Callee)
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	for _, n := range order {
		scanAllocs(pass, n, chainTo(n, parent))
	}
}

// chainTo renders the witness chain root → … → n.
func chainTo(n *Node, parent map[*Node]*Edge) []string {
	var rev []string
	for cur := n; cur != nil; {
		rev = append(rev, cur.Name)
		e := parent[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	path := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path
}

// allocatingExt names external packages whose exported functions all
// allocate on every call.
var allocatingExt = map[string]bool{"fmt": true, "errors": true}

// scanAllocs reports allocating constructs in one function body.
func scanAllocs(pass *ModulePass, n *Node, path []string) {
	info := n.Pkg.Info
	report := func(pos token.Pos, what string) {
		pass.ReportPathf(pos, path,
			"%s allocates on the hot path %s (path: %s); reuse scratch, hoist it out of the tick, or mark the function //harmony:coldpath (//harmony:allow hotpathalloc <reason> to permit)",
			what, path[0], PathString(path))
	}

	// Appends whose result lands back in their own first argument are
	// the steady-state reuse idiom; collect them so the expression walk
	// can skip them.
	amortized := make(map[*ast.CallExpr]bool)
	forEachOwnNode(n.Body(), func(a ast.Node) {
		as, ok := a.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(ast.Unparen(call.Args[0])) == types.ExprString(ast.Unparen(as.Lhs[i])) {
				amortized[call] = true
			}
		}
	})

	skipLits := make(map[*ast.CompositeLit]bool)
	forEachOwnNode(n.Body(), func(a ast.Node) {
		switch v := a.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(info, v, "make"):
				report(v.Pos(), "make")
			case isBuiltin(info, v, "new"):
				report(v.Pos(), "new")
			case isBuiltin(info, v, "append"):
				if !amortized[v] {
					report(v.Pos(), "copy-grow append (result does not feed back into its operand)")
				}
			default:
				if tv, ok := info.Types[v.Fun]; ok && tv.IsType() {
					if what, bad := allocatingConversion(info, v); bad {
						report(v.Pos(), what)
					}
					return
				}
				if fn := staticCallee(info, v); fn != nil && fn.Pkg() != nil && allocatingExt[fn.Pkg().Path()] {
					report(v.Pos(), fn.Pkg().Name()+"."+fn.Name())
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if cl, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					skipLits[cl] = true
					report(v.Pos(), "&composite literal (escapes to the heap)")
				}
			}
		case *ast.CompositeLit:
			if skipLits[v] {
				return
			}
			if tv, ok := info.Types[v]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					report(v.Pos(), "map literal")
				case *types.Slice:
					report(v.Pos(), "slice literal")
				}
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD {
				if tv, ok := info.Types[v]; ok && tv.Value == nil && isString(tv.Type) {
					report(v.Pos(), "string concatenation")
				}
			}
		case *ast.GoStmt:
			report(v.Pos(), "go statement (the goroutine itself)")
		case *ast.FuncLit:
			if capt := capturedVar(info, v); capt != "" {
				report(v.Pos(), "closure capturing "+capt)
			}
		}
	})
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// allocatingConversion flags string <-> byte/rune slice conversions,
// which copy their operand.
func allocatingConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	dst, ok1 := info.Types[call.Fun]
	src, ok2 := info.Types[call.Args[0]]
	if !ok1 || !ok2 {
		return "", false
	}
	d, s := dst.Type.Underlying(), src.Type.Underlying()
	if isString(d) {
		if _, isSlice := s.(*types.Slice); isSlice {
			return "string(bytes) conversion (copies)", true
		}
	}
	if _, isSlice := d.(*types.Slice); isSlice && isString(s) {
		return "[]byte(string) conversion (copies)", true
	}
	return "", false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturedVar returns the name of a variable the literal captures from
// an enclosing function, or "" for a capture-free literal (which does
// not allocate: it compiles to a static function value).
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(a ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := a.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() == nil || v.Parent() == nil {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
		}
		return true
	})
	return captured
}
