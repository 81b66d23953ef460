package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"harmony/internal/classify"
	"harmony/internal/daemon"
	"harmony/internal/tenant"
	"harmony/internal/trace"
)

// TestStreamingMatchesBatchReplay is the end-to-end acceptance test: a
// generated trace prefix (>10k tasks) streamed through single-tenant
// harmonyd's POST /v1/tasks in NDJSON chunks across several
// control-period ticks must yield a plan bit-identical to the batch
// pipeline (tenant.Replay) over the same prefix.
func TestStreamingMatchesBatchReplay(t *testing.T) {
	const (
		ticks  = 4
		period = 300.0
	)
	gen := trace.DefaultConfig(7)
	gen.Horizon = ticks * period
	gen.RatePerS = 10
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	tasks := append([]trace.Task(nil), tr.Tasks...)
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Submit < tasks[j].Submit })
	if len(tasks) < 10000 {
		t.Fatalf("trace too small for the acceptance bar: %d tasks", len(tasks))
	}
	ch, err := classify.Characterize(tr, classify.Config{Seed: 8, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	machines, models := daemon.TestCluster(100)
	cfg := daemon.Config{Machines: machines, Models: models, Char: ch, PeriodSeconds: period}

	// Batch reference.
	var batchPlans map[string]*daemon.Plan
	daemon.Within("Replay", func() {
		batchPlans, err = tenant.Replay(tenant.Config{Base: cfg, Tenants: []tenant.Spec{{Name: "app"}}}, tasks, ticks)
	})
	if err != nil {
		t.Fatal(err)
	}
	batchPlan := batchPlans["g0"]

	// Streaming path: NDJSON chunks over HTTP, one forced tick per
	// period boundary.
	m, err := tenant.Single(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := m.Groups()[0].Engine()
	s := tenant.NewServer(m, daemon.ServerConfig{})
	t.Cleanup(func() { daemon.Within("Server.Close", s.Close) })
	srv := httptest.NewServer(s)
	defer srv.Close()

	streamed := 0
	i := 0
	for k := 1; k <= ticks; k++ {
		boundary := float64(k) * period
		var window []trace.Task
		for i < len(tasks) && tasks[i].Submit < boundary {
			window = append(window, tasks[i])
			i++
		}
		for len(window) > 0 {
			n := 512
			if n > len(window) {
				n = len(window)
			}
			resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
				strings.NewReader(daemon.TaskNDJSON(window[:n]...)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("tick %d chunk: status %d", k, resp.StatusCode)
			}
			streamed += n
			window = window[n:]
		}
		resp, err := http.Post(srv.URL+"/v1/tick", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d: status %d", k, resp.StatusCode)
		}
	}
	if streamed < 10000 {
		t.Fatalf("streamed only %d tasks", streamed)
	}

	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	streamJSON, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(batchPlan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(streamJSON), bytes.TrimSpace(buf.Bytes())) {
		t.Errorf("streamed plan differs from batch replay:\n--- streamed ---\n%s\n--- batch ---\n%s",
			streamJSON, buf.Bytes())
	}

	var plan daemon.Plan
	if err := json.Unmarshal(streamJSON, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.PeriodIndex != ticks {
		t.Errorf("final plan at period %d, want %d", plan.PeriodIndex, ticks)
	}
	if plan.TotalActive == 0 {
		t.Error("final plan provisions no machines")
	}
	if got := eng.Snapshot().TasksIngested; int(got) != streamed {
		t.Errorf("engine ingested %d of %d streamed", got, streamed)
	}
}

// TestDaemonGracefulShutdown covers the run loop: boot on an ephemeral
// port, ingest work, cancel the context (what SIGINT/SIGTERM do via
// signal.NotifyContext), and require a clean exit within the tick
// deadline with the final plan flushed to the configured writer.
func TestDaemonGracefulShutdown(t *testing.T) {
	m, err := tenant.Single(daemon.TestEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var finalPlan bytes.Buffer
	const deadline = 10 * time.Second
	ready := make(chan string, 1)
	srv := tenant.NewServer(m, daemon.ServerConfig{TickDeadline: deadline})

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- tenant.Run(ctx, srv, tenant.RunConfig{
			Addr:      "127.0.0.1:0",
			FinalPlan: &finalPlan,
			Ready:     ready,
		})
	}()
	addr := <-ready

	resp, err := http.Post("http://"+addr+"/v1/tasks", "application/x-ndjson",
		strings.NewReader(daemon.TaskNDJSON(daemon.GratisTask(1, 10, 60), daemon.GratisTask(2, 20, 60))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(deadline + 5*time.Second):
		t.Fatal("daemon did not shut down within the tick deadline")
	}

	var plan daemon.Plan
	if err := json.Unmarshal(finalPlan.Bytes(), &plan); err != nil {
		t.Fatalf("final plan not valid JSON: %v\n%s", err, finalPlan.Bytes())
	}
	if plan.PeriodIndex != 1 {
		t.Errorf("final plan period = %d", plan.PeriodIndex)
	}
}
