// Package nodeterm is the fixture for the nodeterm analyzer: flagged
// wall-clock, environment, and global-RNG reads plus the allowed forms
// (instance RNG methods, simulation-clock parameters, annotations).
package nodeterm

import (
	"math/rand"
	"os"
	"time"
)

// simNow shows the sanctioned form: time arrives as an input.
func simNow(clock float64) float64 { return clock }

func wallClock() float64 {
	t := time.Now()   // want `time\.Now reads the wall clock`
	_ = time.Since(t) // want `time\.Since reads the wall clock`
	return float64(t.Unix())
}

func untilDeadline(d time.Time) time.Duration {
	return time.Until(d) // want `time\.Until reads the wall clock`
}

func cadence() <-chan time.Time {
	return time.NewTicker(time.Second).C // want `time\.NewTicker reads the wall clock`
}

func envRead() string {
	return os.Getenv("HARMONY_DEBUG") // want `os\.Getenv reads the process environment`
}

func envLookup() bool {
	_, ok := os.LookupEnv("HARMONY_DEBUG") // want `os\.LookupEnv reads the process environment`
	return ok
}

func globalRand() float64 {
	n := rand.Intn(10) // want `rand\.Intn draws from the process-global RNG`
	return rand.Float64() + float64(n) // want `rand\.Float64 draws from the process-global RNG`
}

// seededDraw is fine: it draws from an instance, not the global source.
func seededDraw(r *rand.Rand) float64 { return r.Float64() }

// durations and time arithmetic that do not read the clock are fine.
func period() time.Duration { return 300 * time.Second }

func tickLoop() time.Time {
	//harmony:allow detertaint the daemon tick loop is genuinely wall-clock
	return time.Now()
}

func dumpHook() string {
	return os.Getenv("HARMONY_DUMP_PLAN") //harmony:allow detertaint debug-only dump hook
}
