package daemon

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine running module code
// outlives the tests: an ingest worker whose lane was never closed, a
// serve loop nobody joined, a tick solve with no one to take its result.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := moduleGoroutines(2 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines running module code outlived the tests:\n\n%s", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// moduleGoroutines waits up to wait for every other goroutine with a
// harmony/internal/ frame to end and returns the stacks of those still
// alive, or "" once there are none.
func moduleGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 64<<10)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		var alive []string
		// [0] is the caller; the main goroutine is running TestMain.
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			if strings.Contains(g, "\nharmony/internal/") && !strings.Contains(g, "\nmain.main()") {
				alive = append(alive, g)
			}
		}
		if len(alive) == 0 || time.Now().After(deadline) {
			return strings.Join(alive, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// within runs fn and panics if it has not returned after 10 s, naming
// what hung and dumping the goroutines running module code. A join that
// never comes would otherwise hold the package until go test's timeout;
// the panic fails the running test at once and ends the binary, so no
// later test queues behind the stuck goroutine.
func within(what string, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		panic(fmt.Sprintf("%s did not return within 10 s; goroutines running module code:\n\n%s", what, moduleGoroutines(0)))
	}
}
