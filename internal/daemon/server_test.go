package daemon_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"harmony/internal/daemon"
	"harmony/internal/metrics"
	"harmony/internal/tenant"
	"harmony/internal/trace"
)

// newTestServer serves one engine the way single-tenant harmonyd does: a
// tenant.Single Multi behind tenant.NewServer. It returns the engine and
// the registry /metrics renders.
func newTestServer(t *testing.T, cfg daemon.ServerConfig) (*tenant.Server, *daemon.Engine, *metrics.Registry) {
	t.Helper()
	base := daemon.TestEngineConfig(t)
	base.Registry = metrics.NewRegistry()
	m, err := tenant.Single(base)
	if err != nil {
		t.Fatal(err)
	}
	s := tenant.NewServer(m, cfg)
	t.Cleanup(func() { daemon.Within("Server.Close", s.Close) })
	return s, m.Groups()[0].Engine(), base.Registry
}

func TestIngestEndpoint(t *testing.T) {
	s, eng, _ := newTestServer(t, daemon.ServerConfig{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
		strings.NewReader(daemon.TaskNDJSON(daemon.GratisTask(1, 10, 60), daemon.GratisTask(2, 20, 60))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ir daemon.IngestReply
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

func TestPanicRecoveryMiddleware(t *testing.T) {
	s, _, _ := newTestServer(t, daemon.ServerConfig{})
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
	s, _, _ := newTestServer(t, daemon.ServerConfig{})
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
		tasks = append(tasks, daemon.GratisTask(uint64(i), float64(i*10), 60))
	}
	resp, err = http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
		strings.NewReader(daemon.TaskNDJSON(tasks...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Forced tick returns the fresh plan (and has flushed the queue).
	resp, err = http.Post(srv.URL+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tickPlan daemon.Plan
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
	var gotPlan daemon.Plan
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
		daemon.Stats
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

// TestStatsForecastBacktest drives a dozen control periods and asserts
// /v1/stats exposes a per-class backtest MAE comparable with the offline
// numbers.
func TestStatsForecastBacktest(t *testing.T) {
	s, eng, _ := newTestServer(t, daemon.ServerConfig{})
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

	// Drive windows with a mild ramp so the series is not degenerate.
	id := uint64(1)
	for k := 0; k < 12; k++ {
		for j := 0; j < 3+k%3; j++ {
			task := daemon.GratisTask(id, float64(k)*eng.PolicyConfig().PeriodSeconds+float64(j), 60)
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

// TestRequestRouteLabelsBounded requests a thousand distinct unknown paths
// and requires the per-route counter to gain one series for them all,
// labeled by no client-chosen text.
func TestRequestRouteLabelsBounded(t *testing.T) {
	s, _, reg := newTestServer(t, daemon.ServerConfig{})
	for i := 0; i < 1000; i++ {
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, fmt.Sprintf("/nope/%d%%09x%%22", i), nil))
	}
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var series []string
	for _, line := range strings.Split(reg.Render(), "\n") {
		if strings.HasPrefix(line, "harmonyd_http_requests_total{") {
			series = append(series, line)
		}
	}
	want := []string{
		`harmonyd_http_requests_total{route="GET /v1/stats"} 1`,
		`harmonyd_http_requests_total{route="unmatched"} 1000`,
	}
	if strings.Join(series, "\n") != strings.Join(want, "\n") {
		t.Errorf("route series:\n%s\nwant:\n%s", strings.Join(series, "\n"), strings.Join(want, "\n"))
	}
}
