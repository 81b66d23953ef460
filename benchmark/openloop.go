package main

import "time"

// The load generator: one ordered list of requests sent over one
// connection. An open-loop request carries a due time (offset from the
// start of the measured phase) and is timed from that due time, so the
// wait a stall imposes on later requests counts against the server; a
// closed-loop request (Due < 0) is sent as soon as the previous one
// returned and is timed from its send.

type opKind int

const (
	opIngest opKind = iota // POST /v1/tasks
	opTick                 // POST /v1/tick
	opRead                 // GET of a read route
)

// op is one scheduled request.
type op struct {
	Kind  opKind
	Due   time.Duration // offset from the phase start; < 0 = closed loop
	Path  string
	Body  []byte
	Tasks int           // tasks carried (ingest)
	Limit time.Duration // open loop: latency from due beyond this makes the request late
}

// opResult is what happened to one op.
type opResult struct {
	Op       *op
	Sent     time.Duration // offset at which it was actually sent
	Latency  time.Duration // response time minus due (open) or minus sent (closed)
	Service  time.Duration // response time minus sent
	Lateness time.Duration // sent minus due (open loop; server stalls included)
	Starved  bool          // the generator itself, not the server, made it late
	Status   int           // HTTP status, 0 on a transport error
	Response []byte
}

// failed: the operation itself failed — non-2xx or a transport error.
// This is the contract line's `failed`: it depends on the program alone.
func (r *opResult) failed() bool { return r.Status < 200 || r.Status > 299 }

// late: answered, but past its open-loop limit. Lateness depends on the
// host as well as the program (a stall of the VM makes requests late),
// so it lowers ok_share and is counted in gen.late_requests, but it is
// not a failed operation.
func (r *opResult) late() bool {
	return !r.failed() && r.Op.Limit > 0 && r.Latency > r.Op.Limit
}

// starveThreshold is how late the generator may wake after both the
// due time and the previous response without the request counting as
// starved: a starved generator measures itself, not the server.
const starveThreshold = 5 * time.Millisecond

// clock abstracts the wall clock so the due-time accounting is testable.
type clock interface {
	Now() time.Duration // offset from the phase start
	SleepUntil(offset time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }
func (c wallClock) SleepUntil(offset time.Duration) {
	if d := offset - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// loopOptions are the optional parts of runLoop: stop ends the loop
// early (the reader stops when the writer is done); around runs before
// and after each op, outside the op's sent-to-response interval (the
// traced run's scrapes).
type loopOptions struct {
	stop   <-chan struct{}
	around func(o *op, before bool)
}

// runLoop sends ops in order through do and accounts every request
// against its due time.
func runLoop(c clock, ops []op, do func(*op) (status int, response []byte), opt loopOptions) []opResult {
	results := make([]opResult, 0, len(ops))
	prevDone := time.Duration(0)
	for i := range ops {
		o := &ops[i]
		select {
		case <-opt.stop: // a nil channel never fires
			return results
		default:
		}
		res := opResult{Op: o}
		if o.Due >= 0 {
			c.SleepUntil(o.Due)
		}
		if opt.around != nil {
			opt.around(o, true)
		}
		res.Sent = c.Now()
		from := res.Sent
		if o.Due >= 0 {
			from = o.Due
			res.Lateness = res.Sent - o.Due
			ready := o.Due
			if prevDone > ready {
				ready = prevDone
			}
			res.Starved = res.Sent-ready > starveThreshold
		}
		res.Status, res.Response = do(o)
		prevDone = c.Now()
		res.Latency, res.Service = prevDone-from, prevDone-res.Sent
		results = append(results, res)
		if opt.around != nil {
			opt.around(o, false)
			prevDone = c.Now()
		}
	}
	return results
}
