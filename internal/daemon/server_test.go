package daemon

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"harmony/internal/trace"
)

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *Engine) {
	t.Helper()
	eng, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(eng, cfg), eng
}

// holdLane parks the lane's worker on a barrier, so the queue stays
// exactly as full as the test makes it; the returned release lets the
// worker drain again (and runs at cleanup regardless).
func holdLane(t *testing.T, l *Lane) (release func()) {
	t.Helper()
	gate, parked := make(chan struct{}), make(chan struct{})
	l.Barrier(func() { close(parked); <-gate })
	<-parked
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() { release(); l.Close() })
	return release
}

func taskNDJSON(tasks ...trace.Task) string {
	var sb strings.Builder
	for _, task := range tasks {
		b, _ := json.Marshal(task)
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestIngestEndpoint(t *testing.T) {
	s, eng := newTestServer(t, ServerConfig{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
		strings.NewReader(taskNDJSON(gratisTask(1, 10, 60), gratisTask(2, 20, 60))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 2 || ir.Rejected != 0 {
		t.Errorf("response = %+v", ir)
	}
	s.Flush()
	if got := eng.Snapshot().TasksIngested; got != 2 {
		t.Errorf("ingested = %d", got)
	}

	// Malformed body is a 400.
	resp, err = http.Post(srv.URL+"/v1/tasks", "application/json", strings.NewReader("nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage status = %d", resp.StatusCode)
	}
}

// TestIngestValidatesAtAdmission posts tasks that fail trace.Task.Validate
// next to a valid one: the response counts them invalid rather than
// accepted, they take no queue slot, and a body with nothing valid is a
// 400 that names the reason.
func TestIngestValidatesAtAdmission(t *testing.T) {
	s, eng := newTestServer(t, ServerConfig{QueueSize: 1})
	release := holdLane(t, s.lane)
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(body string) (int, ingestResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ir
	}

	noCPU := gratisTask(1, 0, 60)
	noCPU.CPU = 0
	code, ir := post(taskNDJSON(noCPU, gratisTask(2, 1, 60)) + "null\n")
	if code != http.StatusAccepted || ir.Accepted != 1 || ir.Invalid != 2 || ir.Rejected != 0 {
		t.Errorf("mixed body: status %d response %+v, want 202 with 1 accepted and 2 invalid", code, ir)
	}

	code, ir = post(taskNDJSON(noCPU))
	if code != http.StatusBadRequest || ir.Invalid != 1 || ir.Accepted != 0 ||
		!strings.Contains(ir.Error, "demand out of (0,1]") {
		t.Errorf("all-invalid body: status %d response %+v, want 400 naming the demand", code, ir)
	}

	release()
	s.Flush()
	if got := eng.Snapshot().TasksIngested; got != 1 {
		t.Errorf("ingested = %d, want 1", got)
	}
	if got := s.mIngestErrs.Value(); got != 3 {
		t.Errorf("invalid counter = %v, want 3", got)
	}
}

func TestIngestBackpressure429(t *testing.T) {
	s, _ := newTestServer(t, ServerConfig{QueueSize: 4})
	release := holdLane(t, s.lane)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var tasks []trace.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, gratisTask(uint64(i), float64(i), 60))
	}
	resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
		strings.NewReader(taskNDJSON(tasks...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 4 || ir.Rejected != 6 || ir.Error == "" {
		t.Errorf("response = %+v", ir)
	}

	// The queue drains once the worker runs, and draining frees capacity.
	release()
	s.Flush()
	resp, err = http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
		strings.NewReader(taskNDJSON(gratisTask(99, 99, 60))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-drain status = %d", resp.StatusCode)
	}
}

// TestIngestBackpressureConcurrentProducers hammers a small queue from
// concurrent producers and checks the accepted/rejected split adds up
// exactly to the queue capacity — enqueue must not over-admit under
// contention — and that rejections land on the 429 counter.
func TestIngestBackpressureConcurrentProducers(t *testing.T) {
	s, _ := newTestServer(t, ServerConfig{QueueSize: 16})
	holdLane(t, s.lane)
	srv := httptest.NewServer(s)
	defer srv.Close()

	const producers, perProducer = 8, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, rejected := 0, 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var tasks []trace.Task
			for i := 0; i < perProducer; i++ {
				tasks = append(tasks, gratisTask(uint64(p*100+i), float64(i), 60))
			}
			resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
				strings.NewReader(taskNDJSON(tasks...)))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			var ir ingestResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			if ir.Rejected > 0 && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("rejected %d but status %d", ir.Rejected, resp.StatusCode)
			}
			mu.Lock()
			accepted += ir.Accepted
			rejected += ir.Rejected
			mu.Unlock()
		}(p)
	}
	wg.Wait()

	if accepted != 16 || rejected != producers*perProducer-16 {
		t.Errorf("accepted %d rejected %d, want 16 and %d",
			accepted, rejected, producers*perProducer-16)
	}
	if got := s.mRejected.Value(); got != float64(rejected) {
		t.Errorf("rejected counter = %v, want %d", got, rejected)
	}
	if got := s.lane.Len(); got != 16 {
		t.Errorf("queue depth = %d, want 16", got)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s, _ := newTestServer(t, ServerConfig{})
	s.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "kaboom") {
		t.Errorf("error = %q", body["error"])
	}
	// The server keeps serving after the panic.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic = %d", resp.StatusCode)
	}
}

func TestTickPlanStatsMetricsEndpoints(t *testing.T) {
	s, _ := newTestServer(t, ServerConfig{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// No plan before the first tick.
	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plan before tick = %d", resp.StatusCode)
	}

	var tasks []trace.Task
	for i := 0; i < 30; i++ {
		tasks = append(tasks, gratisTask(uint64(i), float64(i*10), 60))
	}
	resp, err = http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
		strings.NewReader(taskNDJSON(tasks...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Forced tick returns the fresh plan (and has flushed the queue).
	resp, err = http.Post(srv.URL+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tickPlan Plan
	if err := json.NewDecoder(resp.Body).Decode(&tickPlan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tickPlan.PeriodIndex != 1 {
		t.Fatalf("tick: status %d plan %+v", resp.StatusCode, tickPlan)
	}

	resp, err = http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	var gotPlan Plan
	if err := json.NewDecoder(resp.Body).Decode(&gotPlan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotPlan.PeriodIndex != 1 || gotPlan.TotalActive != tickPlan.TotalActive {
		t.Errorf("plan = %+v, tick returned %+v", gotPlan, tickPlan)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Stats
		QueueDepth    int `json:"queueDepth"`
		QueueCapacity int `json:"queueCapacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.TasksIngested != 30 || stats.Ticks != 1 || stats.QueueCapacity != 65536 {
		t.Errorf("stats = %+v", stats)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# HELP harmonyd_tasks_ingested_total",
		"harmonyd_ticks_total 1",
		"harmonyd_machines_active",
		"harmonyd_tick_duration_seconds_bucket",
		"harmonyd_ingest_queue_depth",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestStatsForecastBacktest drives enough control periods past the
// rolling-origin training prefix and asserts /v1/stats exposes a
// per-class backtest MAE comparable with the offline numbers.
func TestStatsForecastBacktest(t *testing.T) {
	s, eng := newTestServer(t, ServerConfig{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	type statsResp struct {
		ForecastBacktest map[string]float64 `json:"forecastBacktest"`
	}
	getStats := func() statsResp {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out statsResp
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Before any history accumulates the field is omitted entirely.
	if early := getStats(); len(early.ForecastBacktest) != 0 {
		t.Errorf("backtest before history = %v", early.ForecastBacktest)
	}

	// Drive windows past the training prefix with a mild ramp so the
	// series is not degenerate.
	id := uint64(1)
	for k := 0; k < backtestMinTrain+4; k++ {
		for j := 0; j < 3+k%3; j++ {
			task := gratisTask(id, float64(k)*eng.PeriodSeconds()+float64(j), 60)
			if err := eng.Ingest(task); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if _, err := eng.Tick(context.Background()); err != nil {
			t.Fatalf("tick %d: %v", k+1, err)
		}
	}

	got := getStats()
	mae, ok := got.ForecastBacktest["class0"]
	if !ok {
		t.Fatalf("forecastBacktest missing class0: %v", got.ForecastBacktest)
	}
	if math.IsNaN(mae) || mae < 0 || mae > 100 {
		t.Errorf("class0 backtest MAE = %v, want a small non-negative error", mae)
	}
	// Long sub-types receive no direct arrivals, so only per-class keys
	// (short series) appear.
	for k := range got.ForecastBacktest {
		if !strings.HasPrefix(k, "class") {
			t.Errorf("unexpected backtest key %q", k)
		}
	}
}
