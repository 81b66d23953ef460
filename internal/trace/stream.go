package trace

import (
	"fmt"
)

// TasksUnknown is the Meta.Tasks value of a stream whose total task
// count is not known up front (generators, pipes).
const TasksUnknown int64 = -1

// Meta is the fixed part of a workload stream: everything a consumer
// needs before the first task — the machine population and the horizon —
// plus the total task count when the producer knows it.
type Meta struct {
	Machines []MachineType
	Horizon  float64 // seconds covered by the stream
	Tasks    int64   // total task count, or TasksUnknown
}

// TaskSource produces a task stream in non-decreasing submit order
// without ever materializing it. It is the streaming counterpart of
// Trace: a 25M-task workload flows through a source with O(1) live
// state, so peak memory is set by the consumer (live tasks, machines),
// not the trace length.
//
// Next fills *t and reports whether a task was produced; (false, nil)
// means a clean end of stream. Sources are single-pass and not safe for
// concurrent use.
type TaskSource interface {
	Meta() Meta
	Next(t *Task) (bool, error)
}

// SliceSource adapts a materialized Trace to the TaskSource interface.
type SliceSource struct {
	tr  *Trace
	pos int
}

// NewSliceSource returns a source that replays tr's (already sorted)
// task slice.
func NewSliceSource(tr *Trace) *SliceSource { return &SliceSource{tr: tr} }

// Meta implements TaskSource.
func (s *SliceSource) Meta() Meta {
	return Meta{Machines: s.tr.Machines, Horizon: s.tr.Horizon, Tasks: int64(len(s.tr.Tasks))}
}

// Next implements TaskSource.
func (s *SliceSource) Next(t *Task) (bool, error) {
	if s.pos >= len(s.tr.Tasks) {
		return false, nil
	}
	*t = s.tr.Tasks[s.pos]
	s.pos++
	return true, nil
}

// ReadChunk fills buf from src and returns how many entries were
// filled. A short (or zero) count with a nil error means the source is
// exhausted. Chunked draining lets batch consumers amortize per-task
// call overhead while keeping memory at the chunk size.
func ReadChunk(src TaskSource, buf []Task) (int, error) {
	for i := range buf {
		ok, err := src.Next(&buf[i])
		if err != nil {
			return i, err
		}
		if !ok {
			return i, nil
		}
	}
	return len(buf), nil
}

// collectChunk is how many tasks Collect gathers in one buffer before it
// starts the next. Growing one slice to a million tasks reallocates,
// clears and copies it dozens of times (append grows a large slice by a
// quarter); filling fixed chunks and concatenating them once allocates and
// copies the tasks about twice.
const collectChunk = 1 << 12

// Collect materializes a source into a Trace. It is the bridge back to
// the batch API for workloads small enough to hold; trace-scale runs
// should consume the source directly instead.
func Collect(src TaskSource) (*Trace, error) {
	m := src.Meta()
	tr := &Trace{Machines: m.Machines, Horizon: m.Horizon}
	var (
		full [][]Task // chunks of collectChunk tasks, in stream order
		cur  []Task   // the chunk being filled
	)
	if m.Tasks > 0 {
		// A header's count is a claim, not a budget: cap the up-front
		// capacity so a hostile count cannot exhaust memory.
		cur = make([]Task, 0, min(m.Tasks, collectChunk))
	}
	prev := -1.0
	var t Task
	for {
		ok, err := src.Next(&t)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if t.Submit < prev {
			return nil, fmt.Errorf("trace: source emitted out-of-order task %d (submit %g after %g)",
				t.ID, t.Submit, prev)
		}
		prev = t.Submit
		if len(cur) == collectChunk {
			full = append(full, cur)
			cur = make([]Task, 0, collectChunk)
		}
		cur = append(cur, t)
	}
	tr.Tasks = cur
	if len(full) > 0 {
		tr.Tasks = make([]Task, 0, len(full)*collectChunk+len(cur))
		for _, c := range full {
			tr.Tasks = append(tr.Tasks, c...)
		}
		tr.Tasks = append(tr.Tasks, cur...)
	}
	if m.Tasks >= 0 && int64(len(tr.Tasks)) != m.Tasks {
		return nil, fmt.Errorf("trace: source meta says %d tasks, stream had %d", m.Tasks, len(tr.Tasks))
	}
	return tr, nil
}
