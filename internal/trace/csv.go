package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// csvHeader is the column layout of the CSV task export.
var csvHeader = []string{"id", "job", "submit", "duration", "cpu", "mem", "priority", "class", "constraint"}

// WriteCSV exports the task stream as CSV (one row per task, header row
// first). Machine metadata is not part of the CSV form — use Write for a
// lossless round trip; CSV exists for interoperability with external
// analysis tools.
func WriteCSV(w io.Writer, tr *Trace) error {
	_, err := WriteCSVStream(w, NewSliceSource(tr))
	return err
}

// WriteCSVStream drains src to w as CSV without materializing it, and
// returns the number of rows written (excluding the header).
func WriteCSVStream(w io.Writer, src TaskSource) (int64, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return 0, fmt.Errorf("trace: csv header: %w", err)
	}
	row := make([]string, len(csvHeader))
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
		row[0] = strconv.FormatUint(t.ID, 10)
		row[1] = strconv.FormatUint(t.JobID, 10)
		row[2] = strconv.FormatFloat(t.Submit, 'g', -1, 64)
		row[3] = strconv.FormatFloat(t.Duration, 'g', -1, 64)
		row[4] = strconv.FormatFloat(t.CPU, 'g', -1, 64)
		row[5] = strconv.FormatFloat(t.Mem, 'g', -1, 64)
		row[6] = strconv.Itoa(t.Priority)
		row[7] = strconv.Itoa(t.SchedClass)
		row[8] = t.Constraint
		if err := cw.Write(row); err != nil {
			return n, fmt.Errorf("trace: csv task %d: %w", n, err)
		}
		n++
	}
	cw.Flush()
	return n, cw.Error()
}

// CSVSource streams tasks from a WriteCSV export one row at a time. The
// caller supplies the machine population (CSV does not carry it) and
// horizon; horizon <= 0 leaves Meta.Horizon at 0 (inferring it would
// require seeing every row). Collect materializes the stream.
type CSVSource struct {
	cr   *csv.Reader
	meta Meta
	line int64
	prev float64
	done bool
}

// NewCSVSource validates the CSV header of r and returns a source over
// its rows. Each Next validates submit-order monotonicity, so a shuffled
// export fails fast rather than silently corrupting a simulation.
func NewCSVSource(r io.Reader, machines []MachineType, horizon float64) (*CSVSource, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: csv header: %w", err)
	}
	if len(hdr) != len(csvHeader) {
		return nil, fmt.Errorf("trace: csv header has %d columns, want %d", len(hdr), len(csvHeader))
	}
	for i, want := range csvHeader {
		if hdr[i] != want {
			return nil, fmt.Errorf("trace: csv column %d is %q, want %q", i, hdr[i], want)
		}
	}
	return &CSVSource{
		cr:   cr,
		meta: Meta{Machines: machines, Horizon: horizon, Tasks: TasksUnknown},
		line: 1,
		prev: -1,
	}, nil
}

// Meta implements TaskSource.
func (s *CSVSource) Meta() Meta { return s.meta }

// Next implements TaskSource.
func (s *CSVSource) Next(t *Task) (bool, error) {
	if s.done {
		return false, nil
	}
	s.line++
	rec, err := s.cr.Read()
	if err == io.EOF {
		s.done = true
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("trace: csv line %d: %w", s.line, err)
	}
	tt, err := taskFromCSV(rec)
	if err != nil {
		return false, fmt.Errorf("trace: csv line %d: %w", s.line, err)
	}
	if tt.Submit < s.prev {
		return false, fmt.Errorf("trace: csv line %d out of submit order (%g after %g)", s.line, tt.Submit, s.prev)
	}
	s.prev = tt.Submit
	*t = tt
	return true, nil
}

func taskFromCSV(rec []string) (Task, error) {
	var (
		t   Task
		err error
	)
	if t.ID, err = strconv.ParseUint(rec[0], 10, 64); err != nil {
		return t, fmt.Errorf("id: %w", err)
	}
	if t.JobID, err = strconv.ParseUint(rec[1], 10, 64); err != nil {
		return t, fmt.Errorf("job: %w", err)
	}
	if t.Submit, err = parseFinite(rec[2]); err != nil {
		return t, fmt.Errorf("submit: %w", err)
	}
	if t.Duration, err = parseFinite(rec[3]); err != nil {
		return t, fmt.Errorf("duration: %w", err)
	}
	if t.CPU, err = parseFinite(rec[4]); err != nil {
		return t, fmt.Errorf("cpu: %w", err)
	}
	if t.Mem, err = parseFinite(rec[5]); err != nil {
		return t, fmt.Errorf("mem: %w", err)
	}
	if t.Priority, err = strconv.Atoi(rec[6]); err != nil {
		return t, fmt.Errorf("priority: %w", err)
	}
	if t.SchedClass, err = strconv.Atoi(rec[7]); err != nil {
		return t, fmt.Errorf("class: %w", err)
	}
	t.Constraint = rec[8]
	return t, nil
}

// parseFinite parses a float that is neither NaN nor infinite: strconv
// accepts "NaN" and "Inf", which a JSON-lines trace cannot carry, and a
// NaN submit would switch the source's order check off.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not finite", s)
	}
	return v, err
}
