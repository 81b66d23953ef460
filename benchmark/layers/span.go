// Package layers is the outside-in layer ledger of the benchmark: it
// times calls into each internal package's public functions, either in
// situ (wrappers around the seams sim.Run and the daemon engine expose)
// or as probes on inputs captured from the same run. It is the only
// part of the benchmark that imports harmony/internal/...; the pinned
// symbols are listed in ../README.md.
package layers

import "time"

// Span is one timed interval at a layer boundary. Per-task calls are
// not recorded one by one: they are aggregated per control period into
// one span carrying the call count and the time spent inside the calls.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // offsets from the recorder's origin
	EndNs   int64  `json:"endNs"`
	Count   int64  `json:"count,omitempty"`  // calls aggregated into the span
	BusyNs  int64  `json:"busyNs,omitempty"` // time inside those calls
}

// Recorder keeps the spans of one run in memory; the benchmark writes
// them out when it ends.
type Recorder struct {
	RunID string `json:"runId"`
	Spans []Span `json:"spans"`

	origin time.Time
}

func NewRecorder(runID string) *Recorder {
	return &Recorder{RunID: runID, origin: time.Now()}
}

// Now is the current offset from the recorder's origin.
func (r *Recorder) Now() int64 { return int64(time.Since(r.origin)) }

// Add records a span and returns its id.
func (r *Recorder) Add(s Span) int {
	s.ID = len(r.Spans) + 1
	r.Spans = append(r.Spans, s)
	return s.ID
}

// End closes a span opened with Add.
func (r *Recorder) End(id int) { r.Spans[id-1].EndNs = r.Now() }

// busy is a span's time inside its layer: BusyNs for an aggregated
// span, its duration otherwise.
func (s *Span) busy() int64 {
	if s.Count > 0 {
		return s.BusyNs
	}
	return s.EndNs - s.StartNs
}

// SelfNs is a span's duration minus the part its children cover.
func (r *Recorder) SelfNs(id int) int64 {
	self := r.Spans[id-1].busy()
	for i := range r.Spans {
		if r.Spans[i].Parent == id {
			self -= r.Spans[i].busy()
		}
	}
	return self
}

// BusyNs sums the busy time of every span of one name.
func (r *Recorder) BusyNs(name string) (ns, calls int64) {
	for i := range r.Spans {
		if s := &r.Spans[i]; s.Name == name {
			ns += s.busy()
			if s.Count > 0 {
				calls += s.Count
			} else {
				calls++
			}
		}
	}
	return ns, calls
}
