package classify

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := syntheticTrace()
	ch, err := Characterize(tr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ch); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Classes) != len(ch.Classes) {
		t.Fatalf("classes = %d, want %d", len(got.Classes), len(ch.Classes))
	}
	for i := range ch.Classes {
		a, b := &ch.Classes[i], &got.Classes[i]
		if a.ID != b.ID || a.Group != b.Group || a.Count != b.Count {
			t.Errorf("class %d metadata mismatch", i)
		}
		if a.CPU != b.CPU || a.MemStd != b.MemStd {
			t.Errorf("class %d stats mismatch", i)
		}
		if a.CPUQuantiles != b.CPUQuantiles {
			t.Errorf("class %d quantiles mismatch", i)
		}
		if len(a.Sub) != len(b.Sub) {
			t.Errorf("class %d sub count mismatch", i)
		}
	}

	// Labeling behaves identically after a round trip.
	for _, task := range tr.Tasks {
		if ch.Label(task) != got.Label(task) {
			t.Fatalf("label diverged for task %d", task.ID)
		}
	}

	// TaskTypes carry through.
	if len(got.TaskTypes()) != len(ch.TaskTypes()) {
		t.Error("task types diverged")
	}
}

// validClass is one class body Load accepts; garbageBodies spoils it one
// field at a time.
const validClass = `{"id":0,"group":1,"cpu":0.1,"mem":0.2,"cpuStd":0.01,"memStd":0.02,"count":5,
	"sub":[{"MeanDuration":30,"SqCV":1,"MaxDuration":60,"Count":5}],"logCentroid":[-2.3,-1.6]}`

// garbageBodies maps each malformed characterization to the field its
// Load error must name with class 0 ("" where any error will do).
var garbageBodies = map[string]struct{ body, field string }{
	"not json":      {"nope", ""},
	"wrong version": {`{"version": 99, "classes": [{"id":0}]}`, ""},
	"empty classes": {`{"version": 1, "classes": []}`, ""},
	"sparse ids": {`{"version":1,"classes":[{"id":5,"group":1,"sub":[{}],
			"logCentroid":[0,0]}]}`, ""},
	"bad group": {`{"version":1,"classes":[{"id":0,"group":9,"sub":[{}],
			"logCentroid":[0,0]}]}`, ""},
	"no subs": {`{"version":1,"classes":[{"id":0,"group":1,"sub":[],
			"logCentroid":[0,0]}]}`, ""},
	"bad centroid": {`{"version":1,"classes":[{"id":0,"group":1,"sub":[{}],
			"logCentroid":[0]}]}`, ""},
	"zero cpu":                 {spoil(`"cpu":0.1`, `"cpu":0`), "cpu"},
	"cpu above one":            {spoil(`"cpu":0.1`, `"cpu":1.5`), "cpu"},
	"negative mem":             {spoil(`"mem":0.2`, `"mem":-0.2`), "mem"},
	"mem above one":            {spoil(`"mem":0.2`, `"mem":2`), "mem"},
	"negative cpuStd":          {spoil(`"cpuStd":0.01`, `"cpuStd":-0.01`), "cpuStd"},
	"negative memStd":          {spoil(`"memStd":0.02`, `"memStd":-0.02`), "memStd"},
	"negative count":           {spoil(`"count":5`, `"count":-5`), "count"},
	"zero MeanDuration":        {spoil(`"MeanDuration":30`, `"MeanDuration":0`), "MeanDuration"},
	"negative MeanDuration":    {spoil(`"MeanDuration":30`, `"MeanDuration":-30`), "MeanDuration"},
	"negative SqCV":            {spoil(`"SqCV":1`, `"SqCV":-1`), "SqCV"},
	"negative sub-class Count": {spoil(`"Count":5`, `"Count":-5`), "Count"},
}

// oneClass is the characterization holding the single class body c.
func oneClass(c string) string { return `{"version":1,"classes":[` + c + `]}` }

// spoil returns oneClass of validClass with old, which must occur in it
// once, replaced by new.
func spoil(old, new string) string {
	if strings.Count(validClass, old) != 1 {
		panic("spoil: " + old)
	}
	return oneClass(strings.Replace(validClass, old, new, 1))
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader(oneClass(validClass))); err != nil {
		t.Fatalf("the unspoiled class is rejected: %v", err)
	}
	for name, c := range garbageBodies {
		_, err := Load(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if msg := err.Error(); c.field != "" && !(strings.Contains(msg, "class 0 ") && strings.Contains(msg, " "+c.field+" ")) {
			t.Errorf("%s: error %q does not name class 0 and %s", name, err, c.field)
		}
	}
}

// FuzzLoad: Load never panics, every task type of a characterization it
// accepts is one the provisioning pipeline can size, and what it accepts
// survives a Save and a second Load.
func FuzzLoad(f *testing.F) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := Save(&saved, ch); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	for _, c := range garbageBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ch, err := Load(bytes.NewReader(body))
		if err != nil {
			return
		}
		for _, tt := range ch.TaskTypes() {
			if !(tt.CPU > 0 && tt.CPU <= 1 && tt.Mem > 0 && tt.Mem <= 1 &&
				tt.CPUStd >= 0 && tt.MemStd >= 0 && tt.Count >= 0 &&
				tt.MeanDuration > 0 && tt.SqCV >= 0) {
				t.Fatalf("accepted a task type the pipeline cannot size: %+v", tt)
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, ch); err != nil {
			t.Fatalf("accepted characterization does not save: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("saved characterization does not re-load: %v\n%s", err, buf.Bytes())
		}
	})
}
