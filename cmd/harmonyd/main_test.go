package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// charDoc is a minimal valid characterization in the persist format: one
// gratis class with a short/long split.
const charDoc = `{
  "version": 1,
  "classes": [
    {
      "id": 0, "group": 1,
      "cpu": 0.02, "mem": 0.02, "cpuStd": 0.005, "memStd": 0.005,
      "count": 1000,
      "cpuQuantiles": [0.025, 0.03, 0.035, 0.05],
      "memQuantiles": [0.025, 0.03, 0.035, 0.05],
      "sub": [
        {"MeanDuration": 60, "SqCV": 1.2, "MaxDuration": 100, "Count": 900},
        {"MeanDuration": 5000, "SqCV": 0.5, "MaxDuration": 20000, "Count": 100}
      ],
      "logCentroid": [-3.912, -3.912]
    }
  ]
}`

func writeCharFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "char.json")
	if err := os.WriteFile(path, []byte(charDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlagErrors(t *testing.T) {
	char := writeCharFile(t)
	badTenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(badTenants, []byte(`{"tenants":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"missing char", nil, "missing -char"},
		{"bad mode", []string{"-char", char, "-mode", "XXX"}, "unknown -mode"},
		{"missing char file", []string{"-char", "/does/not/exist.json"}, "no such file"},
		{"bad forecaster", []string{"-char", char, "-forecaster", "psychic"}, "unknown -forecaster"},
		{"NaN period", []string{"-char", char, "-period", "NaN"}, "period must be positive and finite"},
		{"negative scale", []string{"-char", char, "-scale", "-5"}, "-scale must be at least 1"},
		{"missing tenants file", []string{"-char", char, "-tenants", "/does/not/exist.json"}, "no such file"},
		{"empty tenants doc", []string{"-char", char, "-tenants", badTenants}, "no tenants"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRunServesUntilSIGTERM boots the daemon on an ephemeral port, streams
// a few tasks, forces a tick, then delivers a real SIGTERM and requires a
// clean exit with the final plan on stdout.
func TestRunServesUntilSIGTERM(t *testing.T) {
	char := writeCharFile(t)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	var out bytes.Buffer
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-char", char,
			"-scale", "400",
			"-forecaster", "auto-arima", // the facade's spelling; "auto" is the daemon's older one
			"-tick-deadline", "10s",
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	body := `{"id":1,"submit":5,"duration":60,"cpu":0.02,"mem":0.02,"priority":0}` + "\n" +
		`{"id":2,"submit":9,"duration":60,"cpu":0.02,"mem":0.02,"priority":0}` + "\n"
	resp, err := http.Post("http://"+addr+"/v1/tasks", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp, err = http.Post("http://"+addr+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status = %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within the tick deadline after SIGTERM")
	}

	var plan struct {
		PeriodIndex int `json:"periodIndex"`
	}
	if err := json.Unmarshal(out.Bytes(), &plan); err != nil {
		t.Fatalf("final plan not valid JSON: %v\n%s", err, out.Bytes())
	}
	// One forced tick plus the shutdown tick.
	if plan.PeriodIndex != 2 {
		t.Errorf("final plan period = %d", plan.PeriodIndex)
	}
}

// TestRunMultiTenantServesUntilSIGTERM boots the daemon in multi-tenant
// mode, streams tenant-tagged tasks, forces a tick, and requires a clean
// SIGTERM exit with the per-group final plans on stdout.
func TestRunMultiTenantServesUntilSIGTERM(t *testing.T) {
	char := writeCharFile(t)
	tenantsPath := filepath.Join(t.TempDir(), "tenants.json")
	tenantsDoc := `{"tenants":[
		{"name":"web","sloDelay":60},
		{"name":"api","sloDelay":100},
		{"name":"batch"}
	]}`
	if err := os.WriteFile(tenantsPath, []byte(tenantsDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	var out bytes.Buffer
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-char", char,
			"-scale", "400",
			"-tenants", tenantsPath,
			"-forecaster", "ewma",
			"-tick-deadline", "10s",
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	body := `{"id":1,"submit":5,"duration":60,"cpu":0.02,"mem":0.02,"priority":0,"tenant":"web"}` + "\n" +
		`{"id":2,"submit":9,"duration":60,"cpu":0.02,"mem":0.02,"priority":0,"tenant":"batch"}` + "\n"
	resp, err := http.Post("http://"+addr+"/v1/tasks", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp, err = http.Post("http://"+addr+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Tenants []struct {
			Name          string `json:"name"`
			TasksIngested uint64 `json:"tasksIngested"`
		} `json:"tenants"`
		Groups []struct {
			Name string `json:"name"`
		} `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Tenants) != 3 || len(stats.Groups) != 2 {
		t.Fatalf("stats: %d tenants, %d groups", len(stats.Tenants), len(stats.Groups))
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	var final struct {
		Groups map[string]struct {
			PeriodIndex int `json:"periodIndex"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(out.Bytes(), &final); err != nil {
		t.Fatalf("final plans not valid JSON: %v\n%s", err, out.Bytes())
	}
	if len(final.Groups) != 2 || final.Groups["g0"].PeriodIndex != 2 {
		t.Errorf("final plans = %+v", final)
	}
}
