// Package ctxflow exercises the flow-sensitive goroutine-termination
// analyzer: spawned goroutines must have a CFG path to return on every
// loop, and worker loops ranging over a channel need somebody in the
// module to actually close it.
package ctxflow

func work() { beat <- struct{}{} }

func sink(int) {}

// An infinite loop with no break or return pins the goroutine forever.
func spawnLoop() {
	go func() {
		for { // want `can never terminate: no path from this point reaches return`
			work()
		}
	}()
}

// select{} blocks forever by definition.
func spawnSelect() {
	go func() {
		select {} // want `can never terminate: no path from this point reaches return`
	}()
}

// The inescapable loop may sit anywhere below the spawn: outer itself
// returns fine, but it calls spin, which never does.
func outer() {
	spin()
}

func spin() {
	for { // want `can never terminate: no path from this point reaches return`
	}
}

func spawnTransitive() {
	go outer() //harmony:allow goleak unjoined on purpose: this tree exercises the termination half
}

// A loop whose select has a terminating case is fine.
func pump(ch <-chan int, done <-chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			case v := <-ch:
				sink(v)
			}
		}
	}()
}

// server.queue is a struct field — a module-wide identity — and no
// close(…queue) exists for it anywhere, so the worker outlives every
// shutdown.
type server struct {
	queue chan int
	sum   int
}

func (s *server) worker() {
	for v := range s.queue { // want `ranges over ctxflow\.server\.queue, but nothing in the module ever closes it`
		s.sum += v
	}
}

func (s *server) start() {
	go s.worker()
}

// drainSome can leave its range through the break, so the close is not
// the loop's only exit.
func (s *server) drainSome() {
	n := 0
	for v := range s.queue {
		n += v
		if n > 10 {
			break
		}
	}
	s.sum = n
}

func (s *server) startDrain() {
	go s.drainSome()
}

// firstOnly returns from inside the body: the loop exits without a close.
func (s *server) firstOnly() {
	for v := range s.queue {
		s.sum = v
		return
	}
}

func (s *server) startFirst() {
	go s.firstOnly()
}

// closedServer's queue is closed in run, so its worker terminates.
type closedServer struct {
	queue chan int
	sum   int
}

func (c *closedServer) worker() {
	for v := range c.queue {
		c.sum += v
	}
}

func (c *closedServer) run() {
	go c.worker()
	close(c.queue)
}

// An annotation on the loop suppresses the finding.
func spawnAllowed() {
	go func() {
		//harmony:allow goleak burn-in loop by design, killed with the process
		for {
			work()
		}
	}()
}

// beat gives work() — and so every goroutine above that calls it — the
// join evidence goleak's other half asks for, so this tree's findings
// are the termination ones alone: goroutines that touch a join signal
// and still can never end.
var beat = make(chan struct{})
