package daemon

import (
	"sync"
	"testing"

	"harmony/internal/metrics"
	"harmony/internal/trace"
)

// recordingSink collects the IDs a lane's worker applied, in order.
type recordingSink struct {
	mu  sync.Mutex
	ids []uint64
}

func (r *recordingSink) apply(t trace.Task) {
	r.mu.Lock()
	r.ids = append(r.ids, t.ID)
	r.mu.Unlock()
}

func (r *recordingSink) applied() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.ids...)
}

func newTestLane(t *testing.T, size int) (*Lane, *recordingSink, *metrics.Gauge) {
	sink := &recordingSink{}
	depth := metrics.NewRegistry().Gauge("depth", "test lane depth")
	l := NewLane(size, depth, sink.apply)
	t.Cleanup(func() { within("Lane.Close", l.Close) })
	return l, sink, depth
}

// flush blocks until every task admitted to l before the call has been
// applied to the sink: a barrier, awaited.
func flush(l *Lane) {
	done := make(chan struct{})
	l.Barrier(func() { close(done) })
	<-done
}

// TestLaneFlushAppliesEarlierTasksInOrder: a flush returns only once every
// task admitted before it has reached the sink, and the sink sees them in
// arrival order.
func TestLaneFlushAppliesEarlierTasksInOrder(t *testing.T) {
	l, sink, depth := newTestLane(t, 64)
	next := uint64(0)
	for round := 1; round <= 5; round++ {
		for i := 0; i < 10; i++ {
			if !l.TryPush(trace.Task{ID: next}) {
				t.Fatalf("task %d rejected by a lane with room", next)
			}
			next++
		}
		flush(l)
		got := sink.applied()
		if len(got) != round*10 {
			t.Fatalf("round %d: flush returned with %d of %d tasks applied", round, len(got), round*10)
		}
		for i, id := range got {
			if id != uint64(i) {
				t.Fatalf("round %d: position %d holds task %d", round, i, id)
			}
		}
	}
	if l.Len() != 0 || depth.Value() != 0 {
		t.Errorf("drained lane reports len %d, depth gauge %v", l.Len(), depth.Value())
	}
}

// TestLaneFullRejectsWithoutBlocking parks the worker so the queue stays
// full: TryPush must refuse at once, the gauge must read the capacity,
// and draining must free the room again.
func TestLaneFullRejectsWithoutBlocking(t *testing.T) {
	l, sink, depth := newTestLane(t, 4)
	release := holdLane(t, l)
	for i := 0; i < 4; i++ {
		if !l.TryPush(trace.Task{ID: uint64(i)}) {
			t.Fatalf("task %d rejected below capacity", i)
		}
	}
	for i := 4; i < 8; i++ {
		if l.TryPush(trace.Task{ID: uint64(i)}) {
			t.Fatalf("task %d admitted beyond capacity", i)
		}
	}
	if l.Len() != 4 || l.Cap() != 4 || depth.Value() != 4 {
		t.Errorf("full lane: len %d cap %d gauge %v, want 4 4 4", l.Len(), l.Cap(), depth.Value())
	}
	if got := sink.applied(); len(got) != 0 {
		t.Errorf("parked worker applied %v", got)
	}

	release()
	flush(l)
	if got := sink.applied(); len(got) != 4 {
		t.Errorf("after drain %d tasks applied, want the 4 admitted", len(got))
	}
	if !l.TryPush(trace.Task{ID: 99}) {
		t.Error("drained lane still rejects")
	}
}

// TestLaneCloseDrainsAndJoins: Close applies everything already admitted,
// returns only after the worker has exited, and may be called again.
func TestLaneCloseDrainsAndJoins(t *testing.T) {
	l, sink, _ := newTestLane(t, 32)
	release := holdLane(t, l)
	for i := 0; i < 20; i++ {
		l.TryPush(trace.Task{ID: uint64(i)})
	}
	release()
	within("Lane.Close", l.Close)
	if got := sink.applied(); len(got) != 20 {
		t.Errorf("Close returned with %d of 20 admitted tasks applied", len(got))
	}
	select {
	case <-l.done:
	default:
		t.Error("Close returned before the worker exited")
	}
	l.Close()
}

// holdLane parks the lane's worker on a barrier, so the queue stays
// exactly as full as the test makes it; the returned release lets the
// worker drain again (and runs at cleanup regardless, before the lane's
// owner closes it).
func holdLane(t *testing.T, l *Lane) (release func()) {
	t.Helper()
	gate, parked := make(chan struct{}), make(chan struct{})
	l.Barrier(func() { close(parked); <-gate })
	<-parked
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}
