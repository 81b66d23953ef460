package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module call graph every analyzer pass carries: the
// interprocedural analyzers walk its edges, the flow-sensitive ones hang
// their per-function facts on its nodes. Resolution rules:
//
//   - Static dispatch — calls to declared functions, methods with a
//     concrete receiver, and immediately invoked function literals — is
//     resolved exactly.
//   - Interface method calls are resolved conservatively with class
//     hierarchy analysis: an edge to every concrete method of a loaded
//     type that implements the interface. Implementations outside the
//     loaded packages (e.g. a stdlib io.Writer) have no AST and produce
//     no edge; the analyzers treat the stdlib as leaf calls.
//   - A call through a local variable that only ever holds function
//     literals of its own function — the `reset := func(){...}; reset()`
//     shape — is resolved exactly to those literals.
//   - Other calls through function values (variables, fields,
//     parameters, method values) are resolved conservatively to every
//     function or literal whose value is taken somewhere in the module,
//     whose signature is identical, and whose defining package is
//     import-reachable from the caller's package. The reachability cut
//     is deliberate: a value the caller cannot name must have been
//     injected from above, and injected behavior is an input the
//     injector vouches for (see detertaint's contract).
//   - A function literal that is not immediately invoked still gets an
//     edge from its enclosing function (defining a closure almost always
//     precedes running it), tagged as dynamic.
//   - go and defer statements produce edges tagged EdgeGo / EdgeDefer.
//
// Calls into packages that were not loaded (the standard library, unless
// fixture packages pull it in) are recorded per node as ExtCalls so the
// analyzers can recognize well-known roots (time.Now, os.Getenv,
// sync.WaitGroup.Done, fmt.Sprintf) without stdlib ASTs.

// EdgeKind distinguishes how a call site transfers control.
type EdgeKind uint8

const (
	EdgeCall EdgeKind = iota
	EdgeGo
	EdgeDefer
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	default:
		return "call"
	}
}

// Node is one function in the module: a declared function or method, or
// a function literal.
type Node struct {
	Fn   *types.Func   // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for function literals
	Pkg  *Package
	Name string // pretty name for diagnostics, e.g. sched.(*Harmony).Period

	Out []*Edge
	In  []*Edge
	Ext []ExtCall

	facts nodeFacts // lazily built, see facts.go
}

// Body returns the function body.
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Pos returns the function's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// Edge is one resolved call site.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   EdgeKind
	Pos    token.Pos
	// Dynamic marks conservative resolution: interface dispatch, calls
	// through function values, or closure definition. Via says which.
	Dynamic bool
	Via     string
}

// ExtCall is a call whose callee lives in a package that was not loaded
// (typically the standard library).
type ExtCall struct {
	Fn   *types.Func
	Kind EdgeKind
	Pos  token.Pos
}

// Graph is the module call graph.
type Graph struct {
	Funcs []*Node // deterministic order: by file position

	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	fset  *token.FileSet
}

// NodeOf returns the node for a declared function, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byObj[fn.Origin()]
}

// NodeOfLit returns the node for a function literal, or nil.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// builder carries the intermediate state of graph construction.
type builder struct {
	g          *Graph
	pkgs       []*Package
	valueTaken map[*types.Func]bool // declared functions whose value escapes
	litTaken   []*Node              // literal nodes (always value candidates)
	namedTypes []types.Type         // all loaded named types, for CHA
	implCache  map[implKey][]*types.Func
	reach      map[string]map[string]bool // pkg path -> transitively imported paths
}

type implKey struct {
	iface  *types.Interface
	method string
}

// BuildGraph constructs the call graph over the loaded packages.
func BuildGraph(pkgs []*Package) *Graph {
	b := &builder{
		g: &Graph{
			byObj: make(map[*types.Func]*Node),
			byLit: make(map[*ast.FuncLit]*Node),
			fset:  pkgs[0].Fset,
		},
		pkgs:       pkgs,
		valueTaken: make(map[*types.Func]bool),
		implCache:  make(map[implKey][]*types.Func),
		reach:      make(map[string]map[string]bool),
	}
	b.collectNamedTypes()
	b.collectNodes()
	b.collectEdges()
	b.linkIn()
	return b.g
}

// collectNamedTypes gathers every package-scope named type for class
// hierarchy analysis.
func (b *builder) collectNamedTypes() {
	for _, pkg := range b.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			b.namedTypes = append(b.namedTypes, tn.Type())
		}
	}
}

// collectNodes creates a node per declared function and per function
// literal, naming literals after their enclosing function.
func (b *builder) collectNodes() {
	for _, pkg := range b.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					b.addDecl(pkg, d)
				case *ast.GenDecl:
					// Package-level `var f = func() {...}`: literals with
					// no enclosing function.
					name := fmt.Sprintf("%s.init", pathBase(pkg.Path))
					litSeq := 0
					ast.Inspect(d, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							litSeq++
							b.addLit(pkg, lit, fmt.Sprintf("%s.func%d", name, litSeq))
							return false // nested literals named on their own walk
						}
						return true
					})
				}
			}
		}
	}
	sort.Slice(b.g.Funcs, func(i, j int) bool {
		pi, pj := b.g.fset.Position(b.g.Funcs[i].Pos()), b.g.fset.Position(b.g.Funcs[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
}

func (b *builder) addDecl(pkg *Package, d *ast.FuncDecl) {
	fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
	if !ok || d.Body == nil {
		return
	}
	node := &Node{Fn: fn, Decl: d, Pkg: pkg, Name: prettyFuncName(fn)}
	b.g.byObj[fn.Origin()] = node
	b.g.Funcs = append(b.g.Funcs, node)

	// Nested literals, named decl.funcN in source order.
	litSeq := 0
	forEachOwnNode(d.Body, func(n ast.Node) {
		if lit, ok := n.(*ast.FuncLit); ok {
			litSeq++
			b.addLitTree(pkg, lit, fmt.Sprintf("%s.func%d", node.Name, litSeq))
		}
	})
}

// addLitTree adds lit and, recursively, literals nested inside it.
func (b *builder) addLitTree(pkg *Package, lit *ast.FuncLit, name string) {
	b.addLit(pkg, lit, name)
	litSeq := 0
	forEachOwnNode(lit.Body, func(n ast.Node) {
		if inner, ok := n.(*ast.FuncLit); ok {
			litSeq++
			b.addLitTree(pkg, inner, fmt.Sprintf("%s.%d", name, litSeq))
		}
	})
}

func (b *builder) addLit(pkg *Package, lit *ast.FuncLit, name string) {
	node := &Node{Lit: lit, Pkg: pkg, Name: name}
	b.g.byLit[lit] = node
	b.g.Funcs = append(b.g.Funcs, node)
	b.litTaken = append(b.litTaken, node)
}

// forEachOwnNode walks root and the AST under it but does not descend
// into function literals: a literal is visited, its contents belong to
// its own node.
func forEachOwnNode(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		fn(n)
		_, isLit := n.(*ast.FuncLit)
		return !isLit
	})
}

// collectEdges resolves every call site. Two sweeps: the first records
// which functions have their value taken (so the second can resolve
// calls through function values), the second builds edges.
func (b *builder) collectEdges() {
	for _, node := range b.g.Funcs {
		b.collectValueTaken(node)
	}
	for _, node := range b.g.Funcs {
		b.resolveBody(node)
	}
}

// collectValueTaken records declared functions used outside call
// position in node's body: assigned, passed, returned, or captured as
// method values. Interface method values conservatively take the value
// of every implementation.
func (b *builder) collectValueTaken(node *Node) {
	info := node.Pkg.Info
	callFuns := make(map[ast.Expr]bool)
	forEachOwnNode(node.Body(), func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
	})
	forEachOwnNode(node.Body(), func(n ast.Node) {
		switch e := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[e].(*types.Func); ok && !callFuns[ast.Expr(e)] {
				b.valueTaken[fn.Origin()] = true
			}
		case *ast.SelectorExpr:
			if callFuns[ast.Expr(e)] {
				return
			}
			sel, ok := info.Selections[e]
			if !ok || sel.Kind() != types.MethodVal {
				// Package-qualified functions are handled by the Ident
				// case through e.Sel.
				if fn, ok := info.Uses[e.Sel].(*types.Func); ok && !callFuns[ast.Expr(e)] {
					b.valueTaken[fn.Origin()] = true
				}
				return
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if types.IsInterface(sel.Recv()) {
				for _, impl := range b.implementations(sel.Recv(), fn.Name()) {
					b.valueTaken[impl.Origin()] = true
				}
			} else {
				b.valueTaken[fn.Origin()] = true
			}
		}
	})
}

// resolveBody builds the outgoing edges and external calls of one node.
func (b *builder) resolveBody(node *Node) {
	kinds := make(map[*ast.CallExpr]EdgeKind)
	forEachOwnNode(node.Body(), func(n ast.Node) {
		switch s := n.(type) {
		case *ast.GoStmt:
			kinds[s.Call] = EdgeGo
		case *ast.DeferStmt:
			kinds[s.Call] = EdgeDefer
		}
	})
	forEachOwnNode(node.Body(), func(n ast.Node) {
		switch e := n.(type) {
		case *ast.CallExpr:
			b.resolveCall(node, e, kinds[e])
		case *ast.FuncLit:
			// A literal that is not the function of an immediate call:
			// connect it to its definer — defining a closure almost
			// always precedes running it — tagged dynamic.
			if lit := b.g.byLit[e]; lit != nil && !b.isCallFun(node, e) {
				kind := EdgeCall
				if k, ok := kinds[parentCallOf(node, e)]; ok {
					kind = k
				}
				b.addEdge(node, lit, kind, e.Pos(), true, "closure")
			}
		}
	})
}

// isCallFun reports whether e appears as the function operand of a call
// in node's body.
func (b *builder) isCallFun(node *Node, e ast.Expr) bool {
	found := false
	forEachOwnNode(node.Body(), func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == e {
			found = true
		}
	})
	return found
}

// parentCallOf finds the call whose argument list directly contains e,
// so `go wrapper(func(){...})` tags the literal's closure edge as EdgeGo.
func parentCallOf(node *Node, e ast.Expr) *ast.CallExpr {
	var parent *ast.CallExpr
	forEachOwnNode(node.Body(), func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if ast.Unparen(arg) == e {
					parent = call
				}
			}
		}
	})
	return parent
}

func (b *builder) resolveCall(node *Node, call *ast.CallExpr, kind EdgeKind) {
	info := node.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversions and builtins are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return
		}
	}

	// Immediately invoked literal: exact edge.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if n := b.g.byLit[lit]; n != nil {
			b.addEdge(node, n, kind, call.Pos(), false, "")
		}
		return
	}

	// Generic instantiation f[T](...) resolves through the index operand.
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}

	switch e := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			b.addStatic(node, obj, kind, call.Pos())
			return
		case *types.Var:
			// A local that only ever holds literals of this function
			// resolves exactly; anything else is a function-valued
			// variable or parameter, resolved by signature.
			if lits := b.localLits(node, obj); len(lits) > 0 {
				dynamic, via := len(lits) > 1, ""
				if dynamic {
					via = "local closure"
				}
				for _, lit := range lits {
					b.addEdge(node, lit, kind, call.Pos(), dynamic, via)
				}
				return
			}
			b.addDynamic(node, info.Types[call.Fun].Type, kind, call.Pos())
			return
		case *types.Nil:
			b.addDynamic(node, info.Types[call.Fun].Type, kind, call.Pos())
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					for _, impl := range b.implementations(sel.Recv(), fn.Name()) {
						if n := b.g.NodeOf(impl); n != nil {
							b.addEdge(node, n, kind, call.Pos(), true, "interface dispatch")
						}
					}
					return
				}
				b.addStatic(node, fn, kind, call.Pos())
				return
			case types.FieldVal:
				// Function-typed struct field.
				b.addDynamic(node, sel.Type(), kind, call.Pos())
				return
			}
		}
		// Package-qualified function or method expression.
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			b.addStatic(node, fn, kind, call.Pos())
			return
		}
		if tv, ok := info.Types[call.Fun]; ok {
			b.addDynamic(node, tv.Type, kind, call.Pos())
		}
		return
	}
	// Anything else returning a function (call returning a func, index
	// into a slice of funcs, ...) resolves by signature.
	if tv, ok := info.Types[call.Fun]; ok {
		b.addDynamic(node, tv.Type, kind, call.Pos())
	}
}

// addStatic adds an exact edge to a declared function, or records an
// external call when the callee's package was not loaded.
func (b *builder) addStatic(node *Node, fn *types.Func, kind EdgeKind, pos token.Pos) {
	if callee := b.g.NodeOf(fn); callee != nil {
		b.addEdge(node, callee, kind, pos, false, "")
		return
	}
	node.Ext = append(node.Ext, ExtCall{Fn: fn.Origin(), Kind: kind, Pos: pos})
}

// localLits resolves a call through a local variable that only ever
// holds function literals defined in the caller — the common
// `helper := func(){...}; helper()` shape. It returns nil (forcing the
// signature-based fallback) when any assignment to the variable is not a
// literal of this function, or when the variable's address is taken.
func (b *builder) localLits(node *Node, v *types.Var) []*Node {
	info := node.Pkg.Info
	var lits []*Node
	pure := true
	bindTo := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != types.Object(v) {
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			pure = false
			return
		}
		if ln := b.g.byLit[lit]; ln != nil {
			lits = append(lits, ln)
		} else {
			pure = false
		}
	}
	// Full walk, including nested literals: a reassignment inside a
	// closure still invalidates exact resolution.
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			if len(e.Lhs) != len(e.Rhs) {
				return true
			}
			for i, lhs := range e.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					bindTo(id, e.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range e.Names {
				if i < len(e.Values) {
					bindTo(name, e.Values[i])
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && info.Uses[id] == types.Object(v) {
					pure = false
				}
			}
		}
		return true
	})
	if !pure {
		return nil
	}
	return lits
}

// reachableFrom returns the package paths import-reachable from pkg,
// including pkg itself, cached per package.
func (b *builder) reachableFrom(pkg *Package) map[string]bool {
	if r, ok := b.reach[pkg.Path]; ok {
		return r
	}
	r := map[string]bool{pkg.Path: true}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !r[imp.Path()] {
				r[imp.Path()] = true
				visit(imp)
			}
		}
	}
	visit(pkg.Types)
	b.reach[pkg.Path] = r
	return r
}

// addDynamic resolves a call through a function value: edges to every
// value-taken function or literal with an identical signature whose
// defining package the caller can import-reach.
func (b *builder) addDynamic(node *Node, t types.Type, kind EdgeKind, pos token.Pos) {
	sig, ok := t.(*types.Signature)
	if !ok {
		return
	}
	key := sigKey(sig)
	reach := b.reachableFrom(node.Pkg)
	for fn := range b.valueTaken {
		if fn.Pkg() != nil && !reach[fn.Pkg().Path()] {
			continue
		}
		if sigKey(fn.Type().(*types.Signature)) != key {
			continue
		}
		if callee := b.g.NodeOf(fn); callee != nil {
			b.addEdge(node, callee, kind, pos, true, "function value")
		}
	}
	for _, lit := range b.litTaken {
		if !reach[lit.Pkg.Path] {
			continue
		}
		litSig, ok := lit.Pkg.Info.Types[lit.Lit].Type.(*types.Signature)
		if ok && sigKey(litSig) == key {
			b.addEdge(node, lit, kind, pos, true, "function value")
		}
	}
}

// implementations returns the concrete methods of loaded types that
// implement the interface method, conservatively including pointer
// receivers. Results are cached and deterministic.
func (b *builder) implementations(recv types.Type, method string) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := implKey{iface: iface, method: method}
	if impls, ok := b.implCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, t := range b.namedTypes {
		if types.IsInterface(t) {
			continue
		}
		if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, nil, method)
		if fn, ok := obj.(*types.Func); ok {
			impls = append(impls, fn)
		}
	}
	sort.Slice(impls, func(i, j int) bool {
		return prettyFuncName(impls[i]) < prettyFuncName(impls[j])
	})
	b.implCache[key] = impls
	return impls
}

func (b *builder) addEdge(caller, callee *Node, kind EdgeKind, pos token.Pos, dynamic bool, via string) {
	for _, e := range caller.Out {
		if e.Callee == callee && e.Pos == pos && e.Kind == kind {
			return
		}
	}
	caller.Out = append(caller.Out, &Edge{
		Caller: caller, Callee: callee, Kind: kind, Pos: pos,
		Dynamic: dynamic, Via: via,
	})
}

func (b *builder) linkIn() {
	for _, node := range b.g.Funcs {
		sort.Slice(node.Out, func(i, j int) bool {
			if node.Out[i].Pos != node.Out[j].Pos {
				return node.Out[i].Pos < node.Out[j].Pos
			}
			return node.Out[i].Callee.Name < node.Out[j].Callee.Name
		})
		for _, e := range node.Out {
			e.Callee.In = append(e.Callee.In, e)
		}
	}
}

// staticCallee resolves the statically known callee of a call, or nil:
// a declared function, a package-qualified one, or a method — concrete
// or interface.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch e := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// sigKey normalizes a signature for function-value matching: the
// receiver is dropped (a method value's call signature has none) and
// parameter/result names are erased — `func (g Gauge) Add(d int) int`
// must match a value of type `func(int) int`.
func sigKey(sig *types.Signature) string {
	plain := types.NewSignatureType(nil, nil, nil, unnamedTuple(sig.Params()), unnamedTuple(sig.Results()), sig.Variadic())
	return types.TypeString(plain, func(p *types.Package) string { return p.Path() })
}

func unnamedTuple(t *types.Tuple) *types.Tuple {
	vars := make([]*types.Var, t.Len())
	for i := range vars {
		vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
	}
	return types.NewTuple(vars...)
}

// prettyFuncName renders a function for diagnostics: pkg.Func,
// pkg.(*Type).Method, or pkg.Type.Method.
func prettyFuncName(fn *types.Func) string {
	name := fn.Name()
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := false
		if p, pok := rt.(*types.Pointer); pok {
			rt = p.Elem()
			ptr = true
		}
		tn := rt.String()
		if named, nok := rt.(*types.Named); nok {
			tn = named.Obj().Name()
		}
		pkg := ""
		if fn.Pkg() != nil {
			pkg = pathBase(fn.Pkg().Path()) + "."
		}
		if ptr {
			return fmt.Sprintf("%s(*%s).%s", pkg, tn, name)
		}
		return fmt.Sprintf("%s%s.%s", pkg, tn, name)
	}
	if fn.Pkg() != nil {
		return pathBase(fn.Pkg().Path()) + "." + name
	}
	return name
}

// PathString renders a witness call chain for a diagnostic message.
func PathString(path []string) string {
	return strings.Join(path, " → ")
}
