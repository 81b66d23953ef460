// Package callgraph is the fixture for the call-graph builder unit
// tests: one example of each resolution rule (static dispatch, interface
// dispatch, method values, function values, closures, go/defer edges,
// and the hotpath/coldpath markers).
package callgraph

type Animal interface{ Sound() string }

type Dog struct{}

func (Dog) Sound() string { return "woof" }

type Cat struct{}

func (c *Cat) Sound() string { return "meow" }

// Speak dispatches through the interface: conservatively an edge to
// every implementing concrete method.
func Speak(a Animal) string { return a.Sound() }

// Direct is exact static dispatch.
func Direct() string { return helper() }

func helper() string { return "h" }

// Spawn produces go and defer edges to the same callee.
func Spawn() {
	go helper()
	defer helper()
}

// MethodValue takes d.Sound's value, making Dog.Sound a candidate for
// function-value dispatch.
func MethodValue(d Dog) func() string {
	f := d.Sound
	return f
}

// CallValue calls through a function value: resolved by signature to the
// value-taken candidates.
func CallValue(f func() string) string { return f() }

// Closure defines (but does not invoke) a literal: a dynamic edge from
// the definer.
func Closure() func() int {
	x := 1
	return func() int { return x }
}

// Gauge, Offset, and Shifter carry methods with the func(int) int call
// signature, distinct from Sound's, so the bound-method tests cannot
// cross-contaminate the func() string dispatch tests above.
type Gauge struct{ n int }

func (g Gauge) Add(d int) int { return g.n + d }

type Offset struct{ off int }

func (o *Offset) Add(d int) int { return o.off + d }

// Shifter's method shares the signature but is never value-taken
// anywhere in the fixture: function-value dispatch must exclude it.
type Shifter struct{}

func (Shifter) Shift(d int) int { return d << 1 }

// BoundMethod binds g.Add and calls through the local: the call
// resolves by signature to every value-taken func(int) int.
func BoundMethod(g Gauge) int {
	f := g.Add
	return f(1)
}

type Adder interface{ Add(int) int }

// TakeInterfaceMethod takes an interface method value: conservatively
// every implementation's value is taken.
func TakeInterfaceMethod(a Adder) func(int) int { return a.Add }

// CallAdder calls through a func(int) int parameter: candidates are the
// value-taken methods of that signature, never Shifter.Shift (not
// taken) or Dog.Sound (different signature).
func CallAdder(f func(int) int) int { return f(2) }
