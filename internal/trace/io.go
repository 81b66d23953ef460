package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// header is the first line of the serialized trace stream: machine
// population and horizon, followed by one JSON task per line. The
// line-oriented format keeps memory flat when streaming large traces.
// Tasks is -1 when the producer streamed the file without knowing the
// final count up front.
type header struct {
	Machines []MachineType `json:"machines"`
	Horizon  float64       `json:"horizon"`
	Tasks    int64         `json:"tasks"`
}

// Write serializes tr to w as a JSON-lines stream.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := header{Machines: tr.Machines, Horizon: tr.Horizon, Tasks: int64(len(tr.Tasks))}
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	for i := range tr.Tasks {
		if err := enc.Encode(&tr.Tasks[i]); err != nil {
			return fmt.Errorf("trace: encode task %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteStream drains src to w in the JSON-lines trace format without
// materializing the stream, and returns the number of tasks written.
// The header records the source's task count when known and -1
// otherwise (readers then skip the count cross-check).
func WriteStream(w io.Writer, src TaskSource) (int64, error) {
	m := src.Meta()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := header{Machines: m.Machines, Horizon: m.Horizon, Tasks: m.Tasks}
	if h.Tasks < 0 {
		h.Tasks = TasksUnknown
	}
	if err := enc.Encode(h); err != nil {
		return 0, fmt.Errorf("trace: encode header: %w", err)
	}
	var (
		n int64
		t Task
	)
	for {
		ok, err := src.Next(&t)
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		if err := enc.Encode(&t); err != nil {
			return n, fmt.Errorf("trace: encode task %d: %w", n, err)
		}
		n++
	}
	if m.Tasks >= 0 && n != m.Tasks {
		return n, fmt.Errorf("trace: source meta says %d tasks, stream had %d", m.Tasks, n)
	}
	return n, bw.Flush()
}

// JSONLSource streams tasks from a JSON-lines trace (the Write format)
// one decode at a time, so reading a multi-gigabyte trace holds one
// task — not the file — in memory.
type JSONLSource struct {
	dec  *json.Decoder
	meta Meta
	n    int64
	prev float64
	done bool
}

// NewJSONLSource reads the stream header from r and returns a source
// over its task lines. Each Next validates submit-order monotonicity,
// and the final count is checked against the header when it carried one.
func NewJSONLSource(r io.Reader) (*JSONLSource, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: decode header: %w", err)
	}
	if h.Tasks < TasksUnknown {
		return nil, fmt.Errorf("trace: header says %d tasks (want a count, or %d for unknown)", h.Tasks, TasksUnknown)
	}
	return &JSONLSource{
		dec:  dec,
		meta: Meta{Machines: h.Machines, Horizon: h.Horizon, Tasks: h.Tasks},
		prev: -1,
	}, nil
}

// Meta implements TaskSource.
func (s *JSONLSource) Meta() Meta { return s.meta }

// Next implements TaskSource.
func (s *JSONLSource) Next(t *Task) (bool, error) {
	if s.done {
		return false, nil
	}
	*t = Task{} // a sparse line must not inherit the previous task's fields
	if err := s.dec.Decode(t); err != nil {
		if err == io.EOF {
			s.done = true
			if s.meta.Tasks >= 0 && s.n != s.meta.Tasks {
				return false, fmt.Errorf("trace: header says %d tasks, stream has %d", s.meta.Tasks, s.n)
			}
			return false, nil
		}
		return false, fmt.Errorf("trace: decode task %d: %w", s.n, err)
	}
	if t.Submit < s.prev {
		return false, fmt.Errorf("trace: task %d out of submit order (%g after %g)", t.ID, t.Submit, s.prev)
	}
	s.prev = t.Submit
	s.n++
	return true, nil
}

// Read parses a trace previously produced by Write (or WriteStream)
// into memory. Use NewJSONLSource to stream instead of materializing.
func Read(r io.Reader) (*Trace, error) {
	src, err := NewJSONLSource(r)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}
