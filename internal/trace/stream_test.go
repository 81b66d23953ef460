package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// drain pulls every task out of a source.
func drain(t *testing.T, src TaskSource) []Task {
	t.Helper()
	var (
		out []Task
		tk  Task
	)
	for {
		ok, err := src.Next(&tk)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, tk)
	}
}

// The chunked streaming generator and the one-shot Generate must emit
// byte-identical task sequences for the same config.
func TestGenSourceMatchesGenerate(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Horizon = 6 * Hour
	cfg.RatePerS = 2.0

	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, chunk := range []int{1, 7, 4096} {
		src, err := NewGenSource(cfg, chunk)
		if err != nil {
			t.Fatalf("NewGenSource(chunk=%d): %v", chunk, err)
		}
		got := drain(t, src)
		if !reflect.DeepEqual(got, tr.Tasks) {
			t.Fatalf("chunk=%d: streamed tasks differ from Generate (%d vs %d tasks)",
				chunk, len(got), len(tr.Tasks))
		}
	}
}

// Property test: random configurations, random chunk sizes — streamed
// and materialized modes must never diverge, and the stream must be in
// submit order.
func TestGenSourceEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultConfig(rng.Int63())
		cfg.Horizon = (0.5 + 3*rng.Float64()) * Hour
		cfg.RatePerS = 0.3 + 4*rng.Float64()
		cfg.Diurnal = rng.Float64() * 0.5
		cfg.BurstProb = rng.Float64() * 0.05
		cfg.BurstFactor = 1 + rng.Float64()*4
		chunk := 1 + rng.Intn(512)

		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("trial %d: Generate: %v", trial, err)
		}
		src, err := NewGenSource(cfg, chunk)
		if err != nil {
			t.Fatalf("trial %d: NewGenSource: %v", trial, err)
		}
		got := drain(t, src)
		if !reflect.DeepEqual(got, tr.Tasks) {
			t.Fatalf("trial %d (seed=%d chunk=%d): streamed %d tasks differ from materialized %d",
				trial, cfg.Seed, chunk, len(got), len(tr.Tasks))
		}
		prev := -1.0
		for i := range got {
			if got[i].Submit < prev {
				t.Fatalf("trial %d: task %d out of submit order", trial, i)
			}
			prev = got[i].Submit
		}
	}
}

// ReadChunk reassembles the same stream as per-task draining.
func TestReadChunk(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Horizon = Hour
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src, _ := NewGenSource(cfg, 64)
	buf := make([]Task, 33)
	var got []Task
	for {
		n, err := ReadChunk(src, buf)
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
		got = append(got, buf[:n]...)
		if n < len(buf) {
			break
		}
	}
	if !reflect.DeepEqual(got, tr.Tasks) {
		t.Fatalf("chunked read differs: %d vs %d tasks", len(got), len(tr.Tasks))
	}
}

// SliceSource.Next feeds the simulator's event loop once per task, so it
// must not allocate: the replay of a materialized trace costs nothing
// beyond the trace.
func TestSliceSourceNextAllocFree(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Horizon = Hour
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := NewSliceSource(tr)
	var tk Task
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		src.pos = 0
		for {
			ok, err := src.Next(&tk)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
	})
	if allocs != 0 {
		t.Errorf("replaying %d tasks allocates %.1f objects, want 0", len(tr.Tasks), allocs)
	}
	if n != 101*len(tr.Tasks) || len(tr.Tasks) == 0 {
		t.Errorf("%d tasks read in 101 replays of %d", n, len(tr.Tasks))
	}
}

// WriteStream -> JSONLSource round-trips the stream without a count in
// the header, and Read accepts the tasks:-1 form.
func TestWriteStreamRoundTrip(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Horizon = 2 * Hour
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	var buf bytes.Buffer
	src, _ := NewGenSource(cfg, 0)
	n, err := WriteStream(&buf, src)
	if err != nil {
		t.Fatalf("WriteStream: %v", err)
	}
	if n != int64(len(tr.Tasks)) {
		t.Fatalf("WriteStream wrote %d tasks, want %d", n, len(tr.Tasks))
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], `"tasks":-1`) {
		t.Fatalf("streamed header should carry tasks:-1, got %s", strings.SplitN(buf.String(), "\n", 2)[0])
	}

	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got.Tasks, tr.Tasks) {
		t.Fatalf("round trip differs: %d vs %d tasks", len(got.Tasks), len(tr.Tasks))
	}
	if got.Horizon != tr.Horizon || !reflect.DeepEqual(got.Machines, tr.Machines) {
		t.Fatal("round trip lost header metadata")
	}
}

// A JSONL stream with a wrong declared count fails at end of stream, and
// an out-of-order stream fails on the offending task.
func TestJSONLSourceValidation(t *testing.T) {
	t.Run("count mismatch", func(t *testing.T) {
		in := `{"machines":[],"horizon":10,"tasks":3}` + "\n" +
			`{"id":1,"submit":1,"duration":1}` + "\n"
		src, err := NewJSONLSource(strings.NewReader(in))
		if err != nil {
			t.Fatalf("NewJSONLSource: %v", err)
		}
		var tk Task
		if ok, err := src.Next(&tk); !ok || err != nil {
			t.Fatalf("first Next = %v, %v", ok, err)
		}
		if _, err := src.Next(&tk); err == nil {
			t.Fatal("count mismatch not detected")
		}
	})
	t.Run("out of order", func(t *testing.T) {
		in := `{"machines":[],"horizon":10,"tasks":-1}` + "\n" +
			`{"id":1,"submit":5,"duration":1}` + "\n" +
			`{"id":2,"submit":2,"duration":1}` + "\n"
		src, err := NewJSONLSource(strings.NewReader(in))
		if err != nil {
			t.Fatalf("NewJSONLSource: %v", err)
		}
		var tk Task
		if ok, err := src.Next(&tk); !ok || err != nil {
			t.Fatalf("first Next = %v, %v", ok, err)
		}
		if _, err := src.Next(&tk); err == nil {
			t.Fatal("out-of-order task not detected")
		}
	})
}

// FuzzJSONLSource feeds arbitrary bytes to the JSON-lines reader; its
// seed corpus is testdata/fuzz/FuzzJSONLSource. Neither the source nor
// Read may panic, the source must hand out tasks in submit order, a
// stream it ends without an error must hold exactly the header's task
// count (unless the header says unknown), Read must agree with the
// source, and WriteStream of the accepted tasks must read back bit for
// bit.
func FuzzJSONLSource(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, body string) {
		read, readErr := Read(strings.NewReader(body))
		src, err := NewJSONLSource(strings.NewReader(body))
		if err != nil {
			if readErr == nil {
				t.Fatalf("Read accepted a stream whose header NewJSONLSource rejects: %v", err)
			}
			return
		}
		meta := src.Meta()
		var tasks []Task
		for {
			var tk Task
			ok, err := src.Next(&tk)
			if err != nil {
				if readErr == nil {
					t.Fatalf("Read accepted a stream the source fails on: %v", err)
				}
				break
			}
			if !ok {
				if meta.Tasks != TasksUnknown && int64(len(tasks)) != meta.Tasks {
					t.Fatalf("header says %d tasks, the stream ended cleanly after %d", meta.Tasks, len(tasks))
				}
				if readErr != nil || len(read.Tasks) != len(tasks) {
					t.Fatalf("Read = %d tasks, %v; the source accepted all %d", len(read.Tasks), readErr, len(tasks))
				}
				break
			}
			if n := len(tasks); n > 0 && tk.Submit < tasks[n-1].Submit {
				t.Fatalf("task %d submits at %g, after %g", n, tk.Submit, tasks[n-1].Submit)
			}
			tasks = append(tasks, tk)
		}

		var out bytes.Buffer
		if _, err := WriteStream(&out, NewSliceSource(&Trace{Machines: meta.Machines, Horizon: meta.Horizon, Tasks: tasks})); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading the accepted tasks: %v", err)
		}
		if math.Float64bits(back.Horizon) != math.Float64bits(meta.Horizon) || !reflect.DeepEqual(back.Machines, meta.Machines) {
			t.Fatalf("header read back as %v %+v, want %v %+v", back.Horizon, back.Machines, meta.Horizon, meta.Machines)
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

// CSV streaming source round-trips an export and rejects shuffled rows.
func TestCSVSourceRoundTrip(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Horizon = Hour
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if _, err := WriteCSVStream(&buf, NewSliceSource(tr)); err != nil {
		t.Fatalf("WriteCSVStream: %v", err)
	}
	src, err := NewCSVSource(bytes.NewReader(buf.Bytes()), tr.Machines, tr.Horizon)
	if err != nil {
		t.Fatalf("NewCSVSource: %v", err)
	}
	got := drain(t, src)
	if len(got) != len(tr.Tasks) {
		t.Fatalf("CSV stream has %d tasks, want %d", len(got), len(tr.Tasks))
	}
	for i := range got {
		if got[i].ID != tr.Tasks[i].ID || got[i].Submit != tr.Tasks[i].Submit ||
			got[i].Constraint != tr.Tasks[i].Constraint {
			t.Fatalf("CSV task %d differs: %+v vs %+v", i, got[i], tr.Tasks[i])
		}
	}

	t.Run("out of order", func(t *testing.T) {
		in := strings.Join([]string{
			"id,job,submit,duration,cpu,mem,priority,class,constraint",
			"1,1,5,1,0.1,0.1,0,0,",
			"2,1,2,1,0.1,0.1,0,0,",
		}, "\n")
		src, err := NewCSVSource(strings.NewReader(in), nil, 10)
		if err != nil {
			t.Fatalf("NewCSVSource: %v", err)
		}
		var tk Task
		if ok, err := src.Next(&tk); !ok || err != nil {
			t.Fatalf("first Next = %v, %v", ok, err)
		}
		if _, err := src.Next(&tk); err == nil {
			t.Fatal("out-of-order CSV row not detected")
		}
	})
}

// Collect rejects sources that violate submit order or lie about counts.
func TestCollectValidation(t *testing.T) {
	bad := &Trace{
		Horizon: 10,
		Tasks: []Task{
			{ID: 1, Submit: 5},
			{ID: 2, Submit: 1},
		},
	}
	if _, err := Collect(NewSliceSource(bad)); err == nil {
		t.Fatal("Collect accepted out-of-order source")
	}
	if _, err := Collect(failingSource{}); err == nil {
		t.Fatal("Collect accepted failing source")
	}
}

// Collect returns the stream in order whatever its length falls on
// against the chunks it gathers it in.
func TestCollectChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, collectChunk - 1, collectChunk, collectChunk + 1, 3 * collectChunk} {
		tr := &Trace{Horizon: 1, Tasks: make([]Task, n)}
		for i := range tr.Tasks {
			tr.Tasks[i] = Task{ID: uint64(i), Submit: float64(i / 3)}
		}
		got, err := Collect(NewSliceSource(tr))
		if err != nil {
			t.Fatalf("%d tasks: %v", n, err)
		}
		if len(got.Tasks) != n {
			t.Fatalf("%d tasks collected, want %d", len(got.Tasks), n)
		}
		for i := range got.Tasks {
			if got.Tasks[i] != tr.Tasks[i] {
				t.Fatalf("%d tasks: slot %d holds task %d, want %d", n, i, got.Tasks[i].ID, i)
			}
		}
	}
}

type failingSource struct{}

func (failingSource) Meta() Meta               { return Meta{} }
func (failingSource) Next(*Task) (bool, error) { return false, errors.New("source failed") }

// --- DemandSeries boundary pins (the end-bin accounting fix) ---

// A task ending exactly at the horizon must be released: demand returns
// to zero afterward instead of leaking into every later bin.
func TestDemandSeriesReleasesTaskEndingAtHorizon(t *testing.T) {
	tr := &Trace{
		Horizon: 100,
		Tasks: []Task{
			{ID: 1, Submit: 0, Duration: 100, CPU: 1, Mem: 1}, // spans everything
			{ID: 2, Submit: 10, Duration: 10, CPU: 2, Mem: 3}, // ends at 20 = bin boundary
		},
	}
	cpu, _, err := DemandSeries(tr, 10)
	if err != nil {
		t.Fatalf("DemandSeries: %v", err)
	}
	// Bin 1 covers [10,20): both tasks. Bin 2 covers [20,30): task 2 is
	// gone — this is the case the old floor-based end bin got right only
	// when the end fell mid-bin.
	if got := cpu.Points[1].Y; got != 3 {
		t.Errorf("bin [10,20) CPU = %g, want 3", got)
	}
	if got := cpu.Points[2].Y; got != 1 {
		t.Errorf("bin [20,30) CPU = %g, want 1 (task ending on the boundary must be released)", got)
	}
	// The horizon-spanning task is active in the last bin and the series
	// never goes negative or retains phantom demand.
	if got := cpu.Points[len(cpu.Points)-1].Y; got != 1 {
		t.Errorf("last bin CPU = %g, want 1", got)
	}
}

// Horizon an exact multiple of binWidth yields exactly Horizon/binWidth
// bins — no phantom trailing bin.
func TestDemandSeriesExactMultipleBinCount(t *testing.T) {
	tr := &Trace{Horizon: 100, Tasks: []Task{{ID: 1, Submit: 0, Duration: 1, CPU: 1, Mem: 1}}}
	cpu, mem, err := DemandSeries(tr, 10)
	if err != nil {
		t.Fatalf("DemandSeries: %v", err)
	}
	if len(cpu.Points) != 10 || len(mem.Points) != 10 {
		t.Fatalf("bin count = %d/%d, want 10/10", len(cpu.Points), len(mem.Points))
	}
	// Non-multiple horizon rounds up.
	tr.Horizon = 105
	cpu, _, err = DemandSeries(tr, 10)
	if err != nil {
		t.Fatalf("DemandSeries: %v", err)
	}
	if len(cpu.Points) != 11 {
		t.Fatalf("bin count = %d, want 11 for horizon 105", len(cpu.Points))
	}
}

// Bin membership semantics: a task enters at its submit bin and leaves
// at its end bin; one fully inside a bin nets to zero; one running past
// the horizon stays active through the last bin.
func TestDemandSeriesBinMembership(t *testing.T) {
	tr := &Trace{
		Horizon: 30,
		Tasks: []Task{
			{ID: 1, Submit: 5, Duration: 10, CPU: 1, Mem: 1},   // [5,15): enters bin 0, leaves at bin 1
			{ID: 2, Submit: 16, Duration: 2, CPU: 8, Mem: 8},   // inside bin 1: nets to zero
			{ID: 3, Submit: 25, Duration: 100, CPU: 4, Mem: 4}, // runs past horizon
		},
	}
	cpu, _, err := DemandSeries(tr, 10)
	if err != nil {
		t.Fatalf("DemandSeries: %v", err)
	}
	want := []float64{1, 0, 4}
	for i, w := range want {
		if got := cpu.Points[i].Y; got != w {
			t.Errorf("bin %d CPU = %g, want %g", i, got, w)
		}
	}
}

// Streaming and materialized analysis agree.
func TestDemandSeriesFromMatchesBatch(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Horizon = 3 * Hour
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	bc, bm, err := DemandSeries(tr, 300)
	if err != nil {
		t.Fatalf("DemandSeries: %v", err)
	}
	src, _ := NewGenSource(cfg, 256)
	sc, sm, err := DemandSeriesFrom(src, 300)
	if err != nil {
		t.Fatalf("DemandSeriesFrom: %v", err)
	}
	if !reflect.DeepEqual(bc, sc) || !reflect.DeepEqual(bm, sm) {
		t.Fatal("streaming demand series differs from batch")
	}

	br, err := ArrivalRates(tr, 300)
	if err != nil {
		t.Fatalf("ArrivalRates: %v", err)
	}
	src2, _ := NewGenSource(cfg, 256)
	sr, err := ArrivalRatesFrom(src2, 300)
	if err != nil {
		t.Fatalf("ArrivalRatesFrom: %v", err)
	}
	if !reflect.DeepEqual(br, sr) {
		t.Fatal("streaming arrival rates differ from batch")
	}
}

// Demand conservation: the integral of the demand series equals the sum
// of task CPU-seconds clipped to the horizon (within bin quantization).
func TestDemandSeriesConservation(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Horizon = 2 * Hour
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	const w = 60.0
	cpu, _, err := DemandSeries(tr, w)
	if err != nil {
		t.Fatalf("DemandSeries: %v", err)
	}
	var integral float64
	for _, p := range cpu.Points {
		integral += p.Y * w
	}
	var exact float64
	for _, tk := range tr.Tasks {
		end := math.Min(tk.Submit+tk.Duration, tr.Horizon)
		if end > tk.Submit {
			exact += (end - tk.Submit) * tk.CPU
		}
	}
	// Bin quantization over/under-counts by at most one bin per task edge.
	if rel := math.Abs(integral-exact) / exact; rel > 0.05 {
		t.Errorf("binned CPU-seconds %.1f vs exact %.1f (rel err %.3f)", integral, exact, rel)
	}
}
