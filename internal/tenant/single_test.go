package tenant

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"harmony/internal/classify"
	"harmony/internal/daemon"
	"harmony/internal/trace"
)

// The single-tenant daemon's HTTP surface: a Single Multi behind
// NewServer. The daemon package's external tests cover the rest of it;
// the tests here park the server's lane or read its counters.

// newSingleServer serves base the way single-tenant harmonyd does.
func newSingleServer(t *testing.T, base daemon.Config, cfg daemon.ServerConfig) (*Server, *daemon.Engine) {
	t.Helper()
	m, err := Single(base)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, cfg)
	t.Cleanup(func() { within("Server.Close", s.Close) })
	return s, m.groups[0].eng
}

// unstableChar gives the gratis long sub-class a 1e9 s mean duration, so
// a window of a few hundred gratis arrivals fails the tick's container
// sizing ("system unstable within server cap").
func unstableChar(t testing.TB) *classify.Characterization {
	t.Helper()
	doc := strings.Replace(testCharDoc, `"MeanDuration": 5000`, `"MeanDuration": 1e9`, 1)
	ch, err := classify.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/single_wire.golden")

// lastTickSeconds is the one wall-clock field of a single-tenant body.
var lastTickSeconds = regexp.MustCompile(`"lastTickSeconds": [^,\n]+`)

// TestSingleTenantWireGolden pins the bodies single-tenant harmonyd
// answers with: every POST /v1/tasks, /v1/tick and GET /v1/plan,
// /v1/stats of a fixed stream with three good ticks, a 429 and a failed
// tick, and the series /metrics renders (names and labels, without
// values). Only lastTickSeconds is masked.
func TestSingleTenantWireGolden(t *testing.T) {
	base := testBase(t)
	base.Char = unstableChar(t)
	s, _ := newSingleServer(t, base, daemon.ServerConfig{QueueSize: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var rec strings.Builder
	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if path == "/metrics" {
			raw = []byte(seriesKeys(string(raw)))
		}
		fmt.Fprintf(&rec, "=== %s %s -> %d\n%s", method, path, resp.StatusCode,
			lastTickSeconds.ReplaceAllString(string(raw), `"lastTickSeconds": "masked"`))
	}
	window := func(k, n int) string {
		var tasks []trace.Task
		for i := 0; i < n; i++ {
			tasks = append(tasks, gratisTask(uint64(100*k+i), float64(300*k+i), 60, ""))
		}
		return taskNDJSON(tasks...)
	}

	do("GET", "/v1/plan", "")
	do("GET", "/v1/stats", "")
	noCPU := gratisTask(1, 0, 60, "")
	noCPU.CPU = 0
	prod := trace.Task{ID: 2, Submit: 5, Duration: 400, CPU: 0.1, Mem: 0.1, Priority: 10}
	do("POST", "/v1/tasks", taskNDJSON(noCPU, prod)+window(0, 3))
	do("POST", "/v1/tasks", "nope")
	do("POST", "/v1/tick", "")
	release := holdLanes(t, s)
	do("POST", "/v1/tasks", window(1, 6))
	release()
	do("POST", "/v1/tick", "")
	do("POST", "/v1/tasks", window(2, 4))
	do("POST", "/v1/tick", "")
	do("GET", "/v1/plan", "")
	// The failing window: 200 arrivals, four at a time through the
	// four-task queue.
	lines := strings.SplitAfter(window(3, 200), "\n")
	for k := 0; k < 50; k++ {
		s.Flush()
		resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson", strings.NewReader(strings.Join(lines[4*k:4*k+4], "")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	do("POST", "/v1/tick", "")
	do("GET", "/v1/plan", "")
	do("GET", "/v1/stats", "")
	do("GET", "/metrics", "")

	path := filepath.Join("testdata", "single_wire.golden")
	if *updateWire {
		if err := os.WriteFile(path, []byte(rec.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-wire)", err)
	}
	if got := rec.String(); got != string(want) {
		t.Errorf("single-tenant wire differs from %s:\n%s", path, got)
	}
}

// seriesKeys reduces a /metrics page to its sorted TYPE lines and series
// names with their labels, dropping values and help text.
func seriesKeys(page string) string {
	var keys []string
	for _, line := range strings.Split(page, "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			keys = append(keys, line)
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			keys = append(keys, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

// TestSingleIngestValidatesAtAdmission posts tasks that fail
// trace.Task.Validate next to a valid one: the response counts them
// invalid rather than accepted, they take no queue slot, and a body with
// nothing valid is a 400 that names the reason.
func TestSingleIngestValidatesAtAdmission(t *testing.T) {
	s, eng := newSingleServer(t, testBase(t), daemon.ServerConfig{QueueSize: 1})
	release := holdLanes(t, s)
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(body string) (int, daemon.IngestReply) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir daemon.IngestReply
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ir
	}

	noCPU := gratisTask(1, 0, 60, "")
	noCPU.CPU = 0
	code, ir := post(taskNDJSON(noCPU, gratisTask(2, 1, 60, "")) + "null\n")
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
	s, _ := newSingleServer(t, testBase(t), daemon.ServerConfig{QueueSize: 4})
	release := holdLanes(t, s)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var tasks []trace.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, gratisTask(uint64(i), float64(i), 60, ""))
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
	var ir daemon.IngestReply
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
		strings.NewReader(taskNDJSON(gratisTask(99, 99, 60, ""))))
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
	s, _ := newSingleServer(t, testBase(t), daemon.ServerConfig{QueueSize: 16})
	holdLanes(t, s)
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
				tasks = append(tasks, gratisTask(uint64(p*100+i), float64(i), 60, ""))
			}
			resp, err := http.Post(srv.URL+"/v1/tasks", "application/x-ndjson",
				strings.NewReader(taskNDJSON(tasks...)))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			var ir daemon.IngestReply
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
	if got := s.ordered[0].Len(); got != 16 {
		t.Errorf("queue depth = %d, want 16", got)
	}
}
