package lint

import (
	"path/filepath"
	"testing"
)

// graphFixture loads testdata/src/callgraph and builds its call graph.
func graphFixture(t *testing.T) *Graph {
	t.Helper()
	pkgs, err := sharedLoader(t).LoadFixtureTree(filepath.Join("testdata", "src", "callgraph"))
	if err != nil {
		t.Fatalf("load callgraph fixture: %v", err)
	}
	return BuildGraph(pkgs)
}

func nodeByName(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Funcs {
		if n.Name == name {
			return n
		}
	}
	var names []string
	for _, n := range g.Funcs {
		names = append(names, n.Name)
	}
	t.Fatalf("no node named %s in %v", name, names)
	return nil
}

// edgesTo returns caller's outgoing edges whose callee has the name.
func edgesTo(caller *Node, callee string) []*Edge {
	var out []*Edge
	for _, e := range caller.Out {
		if e.Callee.Name == callee {
			out = append(out, e)
		}
	}
	return out
}

func TestGraphStaticDispatch(t *testing.T) {
	g := graphFixture(t)
	es := edgesTo(nodeByName(t, g, "callgraph.Direct"), "callgraph.helper")
	if len(es) != 1 {
		t.Fatalf("Direct -> helper: got %d edges, want 1", len(es))
	}
	if e := es[0]; e.Dynamic || e.Kind != EdgeCall {
		t.Errorf("Direct -> helper: dynamic=%v kind=%v, want static call", e.Dynamic, e.Kind)
	}
}

func TestGraphInterfaceDispatch(t *testing.T) {
	g := graphFixture(t)
	speak := nodeByName(t, g, "callgraph.Speak")
	for _, callee := range []string{"callgraph.Dog.Sound", "callgraph.(*Cat).Sound"} {
		es := edgesTo(speak, callee)
		if len(es) != 1 {
			t.Fatalf("Speak -> %s: got %d edges, want 1", callee, len(es))
		}
		if e := es[0]; !e.Dynamic || e.Via != "interface dispatch" {
			t.Errorf("Speak -> %s: dynamic=%v via=%q, want interface dispatch", callee, e.Dynamic, e.Via)
		}
	}
	if extra := edgesTo(speak, "callgraph.helper"); len(extra) != 0 {
		t.Errorf("Speak should not reach helper, got %d edges", len(extra))
	}
}

func TestGraphGoDeferEdges(t *testing.T) {
	g := graphFixture(t)
	es := edgesTo(nodeByName(t, g, "callgraph.Spawn"), "callgraph.helper")
	if len(es) != 2 {
		t.Fatalf("Spawn -> helper: got %d edges, want 2 (go + defer)", len(es))
	}
	kinds := map[EdgeKind]bool{}
	for _, e := range es {
		kinds[e.Kind] = true
	}
	if !kinds[EdgeGo] || !kinds[EdgeDefer] {
		t.Errorf("Spawn -> helper kinds = %v, want go and defer", kinds)
	}
}

// TestGraphFunctionValueDispatch pins method-value resolution: taking
// d.Sound makes Dog.Sound (and only it) a candidate for calls through a
// func() string value; (*Cat).Sound is never value-taken.
func TestGraphFunctionValueDispatch(t *testing.T) {
	g := graphFixture(t)
	cv := nodeByName(t, g, "callgraph.CallValue")
	es := edgesTo(cv, "callgraph.Dog.Sound")
	if len(es) != 1 {
		t.Fatalf("CallValue -> Dog.Sound: got %d edges, want 1", len(es))
	}
	if e := es[0]; !e.Dynamic || e.Via != "function value" {
		t.Errorf("CallValue -> Dog.Sound: dynamic=%v via=%q, want function value", e.Dynamic, e.Via)
	}
	if extra := edgesTo(cv, "callgraph.(*Cat).Sound"); len(extra) != 0 {
		t.Errorf("CallValue should not reach (*Cat).Sound (never value-taken), got %d edges", len(extra))
	}
}

func TestGraphClosureEdge(t *testing.T) {
	g := graphFixture(t)
	es := edgesTo(nodeByName(t, g, "callgraph.Closure"), "callgraph.Closure.func1")
	if len(es) != 1 {
		t.Fatalf("Closure -> Closure.func1: got %d edges, want 1", len(es))
	}
	if e := es[0]; !e.Dynamic || e.Via != "closure" {
		t.Errorf("Closure edge: dynamic=%v via=%q, want closure", e.Dynamic, e.Via)
	}
}

// TestGraphInOutSymmetric pins that every out-edge is also its callee's
// in-edge.
func TestGraphInOutSymmetric(t *testing.T) {
	g := graphFixture(t)
	helper := nodeByName(t, g, "callgraph.helper")
	if len(helper.In) != 3 {
		t.Errorf("helper has %d in-edges, want 3 (Direct call, Spawn go, Spawn defer)", len(helper.In))
	}
	for _, e := range helper.In {
		if e.Callee != helper {
			t.Errorf("in-edge of helper has callee %s", e.Callee.Name)
		}
	}
}

// TestGraphBoundMethodDispatch pins bound-method resolution: binding
// g.Add to a local and calling through it resolves, by signature, to
// every value-taken func(int) int method — and to nothing else.
func TestGraphBoundMethodDispatch(t *testing.T) {
	g := graphFixture(t)
	bm := nodeByName(t, g, "callgraph.BoundMethod")
	es := edgesTo(bm, "callgraph.Gauge.Add")
	if len(es) != 1 {
		t.Fatalf("BoundMethod -> Gauge.Add: got %d edges, want 1", len(es))
	}
	if e := es[0]; !e.Dynamic || e.Via != "function value" {
		t.Errorf("BoundMethod -> Gauge.Add: dynamic=%v via=%q, want function value", e.Dynamic, e.Via)
	}
	if extra := edgesTo(bm, "callgraph.Shifter.Shift"); len(extra) != 0 {
		t.Errorf("BoundMethod should not reach Shifter.Shift (never value-taken), got %d edges", len(extra))
	}
	if extra := edgesTo(bm, "callgraph.Dog.Sound"); len(extra) != 0 {
		t.Errorf("BoundMethod should not reach Dog.Sound (signature mismatch), got %d edges", len(extra))
	}
}

// TestGraphInterfaceMethodValue pins the conservative rule for
// interface method values: taking a.Add marks every implementation as
// value-taken, so CallAdder's indirect call reaches both concrete Adds.
func TestGraphInterfaceMethodValue(t *testing.T) {
	g := graphFixture(t)
	ca := nodeByName(t, g, "callgraph.CallAdder")
	for _, callee := range []string{"callgraph.Gauge.Add", "callgraph.(*Offset).Add"} {
		es := edgesTo(ca, callee)
		if len(es) != 1 {
			t.Fatalf("CallAdder -> %s: got %d edges, want 1", callee, len(es))
		}
		if e := es[0]; !e.Dynamic || e.Via != "function value" {
			t.Errorf("CallAdder -> %s: dynamic=%v via=%q, want function value", callee, e.Dynamic, e.Via)
		}
	}
	if extra := edgesTo(ca, "callgraph.Shifter.Shift"); len(extra) != 0 {
		t.Errorf("CallAdder should not reach Shifter.Shift (never value-taken), got %d edges", len(extra))
	}
}
