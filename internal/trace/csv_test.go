package trace

import (
	"bytes"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
)

// readCSV materializes a WriteCSV export the way a batch caller does.
func readCSV(r io.Reader, machines []MachineType, horizon float64) (*Trace, error) {
	src, err := NewCSVSource(r, machines, horizon)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

func TestCSVRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf, tr.Machines, tr.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tasks) != len(tr.Tasks) {
		t.Fatalf("tasks = %d, want %d", len(got.Tasks), len(tr.Tasks))
	}
	for i := range got.Tasks {
		if got.Tasks[i] != tr.Tasks[i] {
			t.Errorf("task %d = %+v, want %+v", i, got.Tasks[i], tr.Tasks[i])
		}
	}
	if got.Horizon != tr.Horizon {
		t.Errorf("horizon = %v", got.Horizon)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("round-tripped trace invalid: %v", err)
	}
}

// garbageCSV holds bodies readCSV must reject; FuzzCSVSource starts from
// them too.
var garbageCSV = map[string]string{
	"empty":        "",
	"bad header":   "a,b,c\n",
	"short header": "id,job\n",
	"old header":   "id,job,submit,duration,cpu,mem,priority,class\n1,1,0,1,0.1,0.1,0,0\n",
	"bad id":       csvHeaderLine + "x,1,0,1,0.1,0.1,0,0,\n",
	"bad float":    csvHeaderLine + "1,1,zero,1,0.1,0.1,0,0,\n",
	"bad priority": csvHeaderLine + "1,1,0,1,0.1,0.1,p,0,\n",
	"short row":    csvHeaderLine + "1,1,0\n",
	"out of order": csvHeaderLine + "1,1,10,1,0.1,0.1,0,0,\n2,1,3,1,0.1,0.1,0,0,\n",
	// strconv parses these; a NaN submit used to switch the order check
	// off, so 10, NaN, 3 was accepted.
	"NaN submit":        csvHeaderLine + "1,1,10,1,0.1,0.1,0,0,\n2,1,NaN,1,0.1,0.1,0,0,\n3,1,3,1,0.1,0.1,0,0,\n",
	"infinite submit":   csvHeaderLine + "1,1,+Inf,1,0.1,0.1,0,0,\n",
	"-Inf submit":       csvHeaderLine + "1,1,-Inf,1,0.1,0.1,0,0,\n",
	"NaN duration":      csvHeaderLine + "1,1,0,nan,0.1,0.1,0,0,\n",
	"infinite duration": csvHeaderLine + "1,1,0,infinity,0.1,0.1,0,0,\n",
	"NaN cpu":           csvHeaderLine + "1,1,0,1,NaN,0.1,0,0,\n",
	"infinite mem":      csvHeaderLine + "1,1,0,1,0.1,Inf,0,0,\n",
	"overflowing mem":   csvHeaderLine + "1,1,0,1,0.1,1e400,0,0,\n",
}

// csvHeaderLine is the header WriteCSV writes.
const csvHeaderLine = "id,job,submit,duration,cpu,mem,priority,class,constraint\n"

func TestReadCSVRejectsGarbage(t *testing.T) {
	for name, body := range garbageCSV {
		if _, err := readCSV(strings.NewReader(body), nil, 1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The rows after the header parse: each body fails for its own reason.
	if _, err := readCSV(strings.NewReader(csvHeaderLine+"1,1,0,1,0.1,0.1,0,0,\n"), nil, 1); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
}

// FuzzCSVSource: whatever the body, the source does not panic, every task
// it yields has finite floats and a submit no earlier than the one before,
// and WriteCSVStream of the yielded tasks reads back bit for bit.
func FuzzCSVSource(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tinyTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	names := make([]string, 0, len(garbageCSV))
	for name := range garbageCSV {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(garbageCSV[name])
	}
	f.Fuzz(func(t *testing.T, body string) {
		src, err := NewCSVSource(strings.NewReader(body), nil, 1)
		if err != nil {
			return
		}
		var tasks []Task
		for {
			var tk Task
			ok, err := src.Next(&tk)
			if err != nil || !ok {
				break
			}
			for _, v := range []float64{tk.Submit, tk.Duration, tk.CPU, tk.Mem} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("task %d accepted with a non-finite field: %+v", len(tasks), tk)
				}
			}
			if n := len(tasks); n > 0 && tk.Submit < tasks[n-1].Submit {
				t.Fatalf("task %d submits at %g, after %g", n, tk.Submit, tasks[n-1].Submit)
			}
			tasks = append(tasks, tk)
		}
		var out bytes.Buffer
		if _, err := WriteCSVStream(&out, NewSliceSource(&Trace{Tasks: tasks})); err != nil {
			t.Fatal(err)
		}
		back, err := readCSV(&out, nil, 1)
		if err != nil {
			t.Fatalf("re-reading the accepted tasks: %v", err)
		}
		if len(back.Tasks) != len(tasks) {
			t.Fatalf("%d tasks read back, want %d", len(back.Tasks), len(tasks))
		}
		for i, got := range back.Tasks {
			if !sameTask(got, tasks[i]) {
				t.Fatalf("task %d read back as %+v, want %+v", i, got, tasks[i])
			}
		}
	})
}

// sameTask compares tasks with floats by bit pattern, so -0 and 0 differ.
func sameTask(a, b Task) bool {
	for _, p := range [][2]float64{{a.Submit, b.Submit}, {a.Duration, b.Duration}, {a.CPU, b.CPU}, {a.Mem, b.Mem}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	a.Submit, a.Duration, a.CPU, a.Mem = b.Submit, b.Duration, b.CPU, b.Mem
	return a == b
}
