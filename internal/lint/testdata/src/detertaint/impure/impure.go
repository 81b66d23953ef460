// Package impure is the detertaint fixture's helper package: it hides
// nondeterministic roots behind ordinary-looking functions, the exact
// shape nodeterm cannot see across a package boundary.
package impure

import (
	"math/rand"
	"os"
	"time"
)

// Stamp reads the wall clock directly.
func Stamp() float64 { return float64(time.Now().UnixNano()) }

// Deep reaches the wall clock two hops down.
func Deep() float64 { return helper() }

func helper() float64 { return Stamp() }

// Env reads the process environment.
func Env() string { return os.Getenv("HOME") }

// Roll draws from the process-global RNG.
func Roll() float64 { return rand.Float64() }

// Vetted reads the wall clock behind a vouched-for annotation: the
// taint stops at the source, so callers stay clean.
func Vetted() float64 {
	//harmony:allow detertaint latency metric only; never influences decisions
	return float64(time.Now().UnixNano())
}

// Ticker implements the fixture's Source interface impurely.
type Ticker struct{}

func (Ticker) Value() float64 { return Stamp() }

// Pure is genuinely deterministic.
func Pure(x float64) float64 { return x * 2 }
