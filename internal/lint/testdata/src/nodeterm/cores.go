package nodeterm

import "runtime"

// poolSize sizes a worker pool from the host, so whatever the pool
// computes depends on where it ran.
func poolSize() int {
	return runtime.GOMAXPROCS(0) // want `runtime\.GOMAXPROCS reads the host core count`
}
