package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// DeterTaint forbids nondeterministic inputs — wall-clock reads,
// environment reads, the host core count, and the global math/rand
// source — from reaching the
// deterministic packages (ScopeDeterministic), at any call depth.
// Replayability of the paper's figures depends on these packages taking
// time from the simulation clock and randomness from a seeded
// internal/stats RNG only.
//
// Depth 0 is a direct reference to a root (time.Now, os.Getenv,
// rand.Intn) inside a deterministic package, flagged where it is written.
// Deeper, a helper in internal/stats or internal/trace that reads the
// wall clock would be invisible to every caller in sim, sched, or core:
// so taint is seeded at the roots anywhere in the module, propagated
// along the call graph (including go/defer edges and conservative
// interface and function-value dispatch), and every call site where a
// deterministic package hands control to a tainted function outside the
// deterministic set is flagged. That diagnostic carries the full witness
// chain from the call site to the root.
//
// A `//harmony:allow detertaint <reason>` at the root call site stops
// the taint at the source: the human vouching that a wall-clock read
// does not influence decisions (e.g. a latency metric) clears every
// transitive caller at once.
//
// Edges within the deterministic set are deliberately not reported:
// direct roots there are depth-0 findings, and a tainted deterministic
// callee is flagged at its own boundary call, so each violation surfaces
// exactly once, at the point where determinism is first lost.
var DeterTaint = &Analyzer{
	Name: "detertaint",
	Doc: "forbid time.Now, os.Getenv, host core-count reads, and global math/rand in deterministic packages (sim, trace, " +
		"sched, core, queueing, binpack, kmeans, forecast, classify, daemon, tenant, harmonyd), " +
		"directly or through transitive callees, with the full call-path witness",
	RunModule: runDeterTaint,
}

// nondetermRoots maps package path -> function name -> what it reads.
var nondetermRoots = map[string]map[string]string{
	"time": {
		"Now":       "wall clock",
		"Since":     "wall clock",
		"Until":     "wall clock",
		"Tick":      "wall clock",
		"After":     "wall clock",
		"AfterFunc": "wall clock",
		"NewTicker": "wall clock",
		"NewTimer":  "wall clock",
	},
	"os": {
		"Getenv":    "process environment",
		"LookupEnv": "process environment",
		"Environ":   "process environment",
	},
	// A worker count taken from the host makes the schedule, and any
	// reduction that depends on it, a function of where the code ran.
	"runtime": {
		"GOMAXPROCS": "host core count",
		"NumCPU":     "host core count",
	},
}

// rngConstructors build a generator from an explicit seed, so they are
// not roots: a stream seeded by a constant or a parameter replays
// exactly, and a clock-seeded one is already tainted through the
// time.Now that produced its seed.
var rngConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

const globalRNG = "process-global RNG"

// taintInfo records why a function is tainted: the next hop toward a
// nondeterministic root, and the root itself.
type taintInfo struct {
	next *Node  // nil when the root call is in this very function
	root string // e.g. "time.Now (wall clock)"
}

func runDeterTaint(pass *ModulePass) {
	deterministic := func(pkgPath string) bool {
		return pass.InScope(ScopeDeterministic, pkgPath)
	}

	// Depth 0: direct references to a root in a deterministic package.
	pass.inspectFiles(func(pkg *Package, n ast.Node) bool {
		if !deterministic(pkg.Path) {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
		if name, why, ok := taintRoot(fn); ok && why == globalRNG {
			pass.Reportf(sel.Pos(),
				"%s draws from the process-global RNG; use a seeded *stats.RNG (//harmony:allow detertaint <reason> to permit)",
				name)
		} else if ok {
			pass.Reportf(sel.Pos(),
				"%s reads the %s; deterministic packages must take it as input (//harmony:allow detertaint <reason> to permit)",
				name, why)
		}
		return true
	})

	// Seed: functions containing a direct, un-vouched-for root call.
	tainted := make(map[*Node]taintInfo)
	var frontier []*Node
	for _, n := range pass.Graph.Funcs {
		for _, ext := range n.Ext {
			name, why, ok := taintRoot(ext.Fn)
			if !ok || pass.Allowed(ext.Pos) {
				continue
			}
			tainted[n] = taintInfo{root: name + " (" + why + ")"}
			frontier = append(frontier, n)
			break
		}
	}

	// Propagate backwards along call edges, breadth-first so every
	// witness path is a shortest chain to its root. The frontier is
	// processed in deterministic graph order.
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].Name < frontier[j].Name })
		var next []*Node
		for _, n := range frontier {
			for _, e := range n.In {
				if _, seen := tainted[e.Caller]; seen {
					continue
				}
				tainted[e.Caller] = taintInfo{next: n, root: tainted[n].root}
				next = append(next, e.Caller)
			}
		}
		frontier = next
	}

	// Report each boundary crossing: a deterministic-package function
	// calling a tainted function that is not itself deterministic-scope.
	for _, n := range pass.Graph.Funcs {
		if !deterministic(n.Pkg.Path) {
			continue
		}
		for _, e := range n.Out {
			ti, ok := tainted[e.Callee]
			if !ok || deterministic(e.Callee.Pkg.Path) {
				continue
			}
			path := witnessPath(n, e.Callee, tainted)
			via := ""
			if e.Dynamic {
				via = " (via " + e.Via + ")"
			}
			pass.ReportPathf(e.Pos, path,
				"%s of %s%s transitively reads %s: %s; deterministic packages must take it as input (//harmony:allow detertaint <reason> to permit)",
				e.Kind, e.Callee.Name, via, ti.root, PathString(path))
		}
	}
}

// witnessPath renders caller → … → root for the diagnostic.
func witnessPath(caller, callee *Node, tainted map[*Node]taintInfo) []string {
	path := []string{caller.Name}
	for n := callee; n != nil; {
		path = append(path, n.Name)
		ti := tainted[n]
		if ti.next == nil {
			path = append(path, ti.root)
			break
		}
		n = ti.next
	}
	return path
}

// taintRoot reports whether fn is a nondeterministic root, with its
// rendered name ("time.Now", "rand.Intn") and what it reads. Roots are
// package-level functions only: a method on *rand.Rand is a seeded
// stream, not the process-global source.
func taintRoot(fn *types.Func) (name, why string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "", false
	}
	path := fn.Pkg().Path()
	if why, ok := nondetermRoots[path][fn.Name()]; ok {
		return pathBase(path) + "." + fn.Name(), why, true
	}
	if (path == "math/rand" || path == "math/rand/v2") && !rngConstructors[fn.Name()] {
		return "rand." + fn.Name(), globalRNG, true
	}
	return "", "", false
}

// The map-iteration-order family of roots is intentionally absent here:
// most map ranges are order-insensitive aggregations, so whole-program
// taint from every map range would be all noise. sortedemit enforces the
// ordered-iteration contract per package at the emit sites themselves.

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
