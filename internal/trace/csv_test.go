package trace

import (
	"bytes"
	"io"
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

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "a,b,c\n",
		"short header": "id,job\n",
		"bad id":       "id,job,submit,duration,cpu,mem,priority,class\nx,1,0,1,0.1,0.1,0,0\n",
		"bad float":    "id,job,submit,duration,cpu,mem,priority,class\n1,1,zero,1,0.1,0.1,0,0\n",
		"bad priority": "id,job,submit,duration,cpu,mem,priority,class\n1,1,0,1,0.1,0.1,p,0\n",
		"short row":    "id,job,submit,duration,cpu,mem,priority,class\n1,1,0\n",
	}
	for name, body := range cases {
		if _, err := readCSV(strings.NewReader(body), nil, 1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
