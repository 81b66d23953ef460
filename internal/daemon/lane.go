package daemon

import (
	"sync"

	"harmony/internal/metrics"
	"harmony/internal/trace"
)

// laneItem is one unit on a lane: a task, or a barrier the worker calls
// once every earlier item has been applied.
type laneItem struct {
	task    trace.Task
	barrier func()
}

// Lane is a bounded ingest queue drained by one worker goroutine into a
// sink, so tasks apply in arrival order and a full queue rejects instead
// of blocking the producer. It is the one ingest mechanism under both
// HTTP front-ends: the single-tenant Server owns one lane, the
// multi-tenant server one per tenant.
type Lane struct {
	queue     chan laneItem
	sink      func(trace.Task)
	depth     *metrics.Gauge
	done      chan struct{} // closed when the worker has exited
	closeOnce sync.Once
}

// NewLane returns a lane holding up to size tasks and starts its worker.
// Every admitted task is handed to sink, in order, on the worker
// goroutine; depth tracks the number of tasks waiting.
func NewLane(size int, depth *metrics.Gauge, sink func(trace.Task)) *Lane {
	l := &Lane{
		queue: make(chan laneItem, size),
		sink:  sink,
		depth: depth,
		done:  make(chan struct{}),
	}
	go l.ingestWorker()
	return l
}

// ingestWorker drains the queue into the sink until Close closes it.
func (l *Lane) ingestWorker() {
	defer close(l.done)
	for item := range l.queue {
		if item.barrier == nil {
			l.sink(item.task)
		}
		// Sampled before a barrier fires, so a flushed lane reads empty.
		l.depth.Set(float64(len(l.queue)))
		if item.barrier != nil {
			item.barrier()
		}
	}
}

// TryPush admits one task if the lane has room and reports whether it
// did. It never blocks.
func (l *Lane) TryPush(t trace.Task) bool {
	select {
	case l.queue <- laneItem{task: t}:
		l.depth.Set(float64(len(l.queue)))
		return true
	default:
		l.depth.Set(float64(len(l.queue)))
		return false
	}
}

// Barrier enqueues fn behind everything already admitted; the worker
// calls it once every earlier task has reached the sink. A caller with
// several lanes plants all its barriers before waiting on any. Unlike
// TryPush it waits for room on a full lane.
func (l *Lane) Barrier(fn func()) {
	l.queue <- laneItem{barrier: fn}
}

// Flush blocks until every task admitted before the call has been
// applied to the sink.
func (l *Lane) Flush() {
	done := make(chan struct{})
	l.Barrier(func() { close(done) })
	<-done
}

// Len returns the number of items waiting on the lane.
func (l *Lane) Len() int { return len(l.queue) }

// Cap returns the lane's capacity.
func (l *Lane) Cap() int { return cap(l.queue) }

// Close shuts the lane down: the queue is closed so the worker drains
// everything already admitted and exits. Callers must stop producers
// first — a TryPush racing Close would send on the closed queue. Close is
// idempotent and blocks until the worker has exited.
func (l *Lane) Close() {
	l.closeOnce.Do(func() { close(l.queue) })
	<-l.done
}
