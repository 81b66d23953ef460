package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"harmony/internal/daemon"
	"harmony/internal/trace"
)

func newTestServer(t *testing.T, cfg ServerConfig, specs ...Spec) (*Server, *Multi) {
	t.Helper()
	if len(specs) == 0 {
		specs = []Spec{{Name: "app"}}
	}
	m, err := New(Config{Base: testBase(t), Tenants: specs})
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(m, cfg), m
}

// holdLanes parks every tenant lane's worker on a barrier, so the queues
// stay exactly as full as the test makes them; the returned release lets
// the workers drain again (and runs at cleanup regardless).
func holdLanes(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var parked sync.WaitGroup
	for _, lane := range s.ordered {
		parked.Add(1)
		lane.Barrier(func() { parked.Done(); <-gate })
	}
	parked.Wait()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() { release(); s.Close() })
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

func postTasks(t *testing.T, url, body string) (int, ingestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/tasks", "application/x-ndjson", strings.NewReader(body))
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

func TestRoutingByTenantTag(t *testing.T) {
	s, m := newTestServer(t, ServerConfig{},
		Spec{Name: "web", SLODelay: 60}, Spec{Name: "api", SLODelay: 100})
	srv := httptest.NewServer(s)
	defer srv.Close()

	code, ir := postTasks(t, srv.URL, taskNDJSON(
		gratisTask(1, 0, 60, "web"),
		gratisTask(2, 1, 60, "api"),
		gratisTask(3, 2, 60, "web"),
		gratisTask(4, 3, 60, "nobody"), // unknown: counted invalid
	))
	if code != http.StatusAccepted || ir.Accepted != 3 || ir.Invalid != 1 {
		t.Fatalf("status %d response %+v", code, ir)
	}
	s.Flush()
	snap := m.Snapshot()
	got := map[string]uint64{}
	for _, ts := range snap.Tenants {
		got[ts.Name] = ts.TasksIngested
	}
	if got["web"] != 2 || got["api"] != 1 {
		t.Errorf("per-tenant counts = %v", got)
	}

	// ?tenant= supplies the tag for untagged tasks.
	resp, err := http.Post(srv.URL+"/v1/tasks?tenant=api", "application/x-ndjson",
		strings.NewReader(taskNDJSON(gratisTask(5, 4, 60, ""))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s.Flush()
	snap = m.Snapshot()
	for _, ts := range snap.Tenants {
		if ts.Name == "api" && ts.TasksIngested != 2 {
			t.Errorf("api after default-tag post = %d", ts.TasksIngested)
		}
	}

	// All-unknown is a 400.
	code, ir = postTasks(t, srv.URL, taskNDJSON(gratisTask(6, 5, 60, "ghost")))
	if code != http.StatusBadRequest || ir.Invalid != 1 || ir.Accepted != 0 {
		t.Errorf("all-unknown: status %d response %+v", code, ir)
	}
}

// TestIngestValidatesAtAdmission posts a task that fails
// trace.Task.Validate and an untagged null task beside a valid one: both
// count as invalid, not accepted, the validation failure is charged to its
// tenant, and a body with nothing valid is a 400 that names the reason.
func TestIngestValidatesAtAdmission(t *testing.T) {
	s, m := newTestServer(t, ServerConfig{},
		Spec{Name: "web", SLODelay: 60}, Spec{Name: "api", SLODelay: 100})
	srv := httptest.NewServer(s)
	defer srv.Close()

	noCPU := gratisTask(1, 0, 60, "web")
	noCPU.CPU = 0
	code, ir := postTasks(t, srv.URL, taskNDJSON(noCPU, gratisTask(2, 1, 60, "web"))+"null\n")
	if code != http.StatusAccepted || ir.Accepted != 1 || ir.Invalid != 2 {
		t.Errorf("mixed body: status %d response %+v, want 202 with 1 accepted and 2 invalid", code, ir)
	}

	code, ir = postTasks(t, srv.URL, taskNDJSON(noCPU))
	if code != http.StatusBadRequest || ir.Invalid != 1 || ir.Accepted != 0 ||
		!strings.Contains(ir.Error, "demand out of (0,1]") {
		t.Errorf("all-invalid body: status %d response %+v, want 400 naming the demand", code, ir)
	}

	s.Flush()
	for _, ts := range m.Snapshot().Tenants {
		if ts.Name == "web" && (ts.TasksIngested != 1 || ts.TasksInvalid != 2) {
			t.Errorf("web ingested %d invalid %d, want 1 and 2", ts.TasksIngested, ts.TasksInvalid)
		}
	}
}

func TestPerTenantBackpressure429(t *testing.T) {
	s, m := newTestServer(t, ServerConfig{QueueSize: 4},
		Spec{Name: "web", SLODelay: 60}, Spec{Name: "api", SLODelay: 100})
	release := holdLanes(t, s)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var tasks []trace.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, gratisTask(uint64(i), float64(i), 60, "web"))
	}
	code, ir := postTasks(t, srv.URL, taskNDJSON(tasks...))
	if code != http.StatusTooManyRequests || ir.Accepted != 4 || ir.Rejected != 6 || ir.Error == "" {
		t.Fatalf("status %d response %+v", code, ir)
	}

	// The other tenant's lane is unaffected.
	code, ir = postTasks(t, srv.URL, taskNDJSON(gratisTask(99, 0, 60, "api")))
	if code != http.StatusAccepted || ir.Accepted != 1 {
		t.Errorf("independent lane: status %d response %+v", code, ir)
	}

	// Rejections are charged to the tenant.
	for _, ts := range m.Snapshot().Tenants {
		if ts.Name == "web" && ts.TasksRejected != 6 {
			t.Errorf("web rejected = %d, want 6", ts.TasksRejected)
		}
	}

	// Draining frees capacity.
	release()
	s.Flush()
	code, _ = postTasks(t, srv.URL, taskNDJSON(gratisTask(100, 0, 60, "web")))
	if code != http.StatusAccepted {
		t.Errorf("post-drain status = %d", code)
	}
}

// TestRefusedTenantStaysRefusedInBody scripts the race a concurrent drain
// opens: the web lane refuses web's first task and would take the next
// ones. The handler must refuse the rest of web's tasks untried, so none
// is admitted ahead of the refused one, while api's task is still tried.
func TestRefusedTenantStaysRefusedInBody(t *testing.T) {
	s, m := newTestServer(t, ServerConfig{},
		Spec{Name: "web", SLODelay: 60}, Spec{Name: "api", SLODelay: 100})
	t.Cleanup(s.Close)
	var pushed []string
	s.push = func(lane *daemon.Lane, task trace.Task) bool {
		pushed = append(pushed, fmt.Sprintf("%s%d", task.Tenant, task.ID))
		if len(pushed) == 1 {
			return false
		}
		return s.enqueue(lane, task)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tasks", strings.NewReader(taskNDJSON(
		gratisTask(1, 0, 60, "web"),
		gratisTask(2, 1, 60, "web"),
		gratisTask(3, 2, 60, "api"),
		gratisTask(4, 3, 60, "web"),
	))))
	var ir ingestResponse
	if err := json.NewDecoder(rec.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusTooManyRequests || ir.Accepted != 1 || ir.Rejected != 3 {
		t.Errorf("status %d response %+v, want 429 with 1 accepted and 3 rejected", rec.Code, ir)
	}
	if got := strings.Join(pushed, ","); got != "web1,api3" {
		t.Errorf("pushed %s, want web1,api3: web is refused untried after its first refusal", got)
	}
	for _, ts := range m.Snapshot().Tenants {
		if ts.Name == "web" && ts.TasksRejected != 3 {
			t.Errorf("web rejected = %d, want 3", ts.TasksRejected)
		}
	}
}

// TestGlobalCapBackpressure fills the shared cap from one tenant and
// checks the other tenant is refused admission even with queue room.
func TestGlobalCapBackpressure(t *testing.T) {
	s, _ := newTestServer(t, ServerConfig{QueueSize: 64, GlobalQueueCap: 6},
		Spec{Name: "web", SLODelay: 60}, Spec{Name: "api", SLODelay: 100})
	holdLanes(t, s)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var tasks []trace.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, gratisTask(uint64(i), float64(i), 60, "web"))
	}
	code, ir := postTasks(t, srv.URL, taskNDJSON(tasks...))
	if code != http.StatusTooManyRequests || ir.Accepted != 6 || ir.Rejected != 4 {
		t.Fatalf("status %d response %+v", code, ir)
	}
	code, ir = postTasks(t, srv.URL, taskNDJSON(gratisTask(99, 0, 60, "api")))
	if code != http.StatusTooManyRequests || ir.Rejected != 1 {
		t.Errorf("global cap must refuse the second tenant: status %d response %+v", code, ir)
	}
}

// TestConcurrentProducersBackpressure hammers one tenant's queue from
// concurrent producers and checks the accepted/rejected accounting adds
// up exactly to the cap — the add-then-check admission cannot overshoot.
func TestConcurrentProducersBackpressure(t *testing.T) {
	s, m := newTestServer(t, ServerConfig{QueueSize: 8, GlobalQueueCap: 8},
		Spec{Name: "app"})
	holdLanes(t, s)
	srv := httptest.NewServer(s)
	defer srv.Close()

	const producers, perProducer = 4, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, rejected := 0, 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var tasks []trace.Task
			for i := 0; i < perProducer; i++ {
				tasks = append(tasks, gratisTask(uint64(p*100+i), float64(i), 60, "app"))
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
			mu.Lock()
			accepted += ir.Accepted
			rejected += ir.Rejected
			mu.Unlock()
		}(p)
	}
	wg.Wait()

	if accepted != 8 || rejected != producers*perProducer-8 {
		t.Errorf("accepted %d rejected %d, want 8 and %d", accepted, rejected, producers*perProducer-8)
	}
	if got := s.globalDepth.Load(); got != 8 {
		t.Errorf("global depth = %d, want 8", got)
	}
	for _, ts := range m.Snapshot().Tenants {
		if ts.TasksRejected != uint64(rejected) {
			t.Errorf("tenant rejected = %d, want %d", ts.TasksRejected, rejected)
		}
	}
	if !strings.Contains(m.cfg.Registry.Render(),
		`harmonyd_tenant_tasks_rejected_total{tenant="app"} 32`) {
		t.Error("rejected counter not exposed on the tenant registry")
	}
}

// TestThreeTenantEndpoints is the ≥3-tenant acceptance path: tagged
// ingest over HTTP, a forced tick, and per-tenant/per-group reporting on
// /v1/stats and /metrics.
func TestThreeTenantEndpoints(t *testing.T) {
	s, _ := newTestServer(t, ServerConfig{},
		Spec{Name: "web", SLODelay: 60, Share: 2},
		Spec{Name: "api", SLODelay: 100},
		Spec{Name: "batch"})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var tasks []trace.Task
	id := uint64(1)
	for j := 0; j < 12; j++ {
		tasks = append(tasks, gratisTask(id, float64(j*5), 60, []string{"web", "api", "batch"}[j%3]))
		id++
	}
	for j := 0; j < 4; j++ {
		tasks = append(tasks, prodTask(id, float64(j*11), 400, "api"))
		id++
	}
	code, ir := postTasks(t, srv.URL, taskNDJSON(tasks...))
	if code != http.StatusAccepted || ir.Accepted != 16 {
		t.Fatalf("status %d response %+v", code, ir)
	}

	// Forced tick returns every group's fresh plan.
	resp, err := http.Post(srv.URL+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tick struct {
		Groups map[string]*daemon.Plan `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tick); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(tick.Groups) != 2 {
		t.Fatalf("tick: status %d groups %v", resp.StatusCode, tick.Groups)
	}
	if tick.Groups["g0"].PeriodIndex != 1 || tick.Groups["g1"].PeriodIndex != 1 {
		t.Errorf("plans = %+v", tick.Groups)
	}

	// /v1/plan serves the same group plans.
	resp, err = http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	var planBody struct {
		Groups map[string]*daemon.Plan `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&planBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(planBody.Groups) != 2 {
		t.Errorf("plan groups = %v", planBody.Groups)
	}

	// /v1/stats carries the per-tenant and per-group accounting.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		MultiStats
		Queues      map[string]queueStats `json:"queues"`
		GlobalDepth int64                 `json:"globalDepth"`
		GlobalCap   int                   `json:"globalCap"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Tenants) != 3 || len(stats.Groups) != 2 {
		t.Fatalf("stats shape: %+v", stats)
	}
	wantCounts := map[string]uint64{"web": 4, "api": 8, "batch": 4}
	for _, ts := range stats.Tenants {
		if ts.TasksIngested != wantCounts[ts.Name] {
			t.Errorf("%s ingested = %d, want %d", ts.Name, ts.TasksIngested, wantCounts[ts.Name])
		}
	}
	for _, gs := range stats.Groups {
		if gs.CostDollars <= 0 || gs.Engine.Ticks != 1 {
			t.Errorf("group %s stats = %+v", gs.Name, gs)
		}
	}
	if len(stats.Queues) != 3 || stats.GlobalCap != 65536 {
		t.Errorf("queues = %v, cap = %d", stats.Queues, stats.GlobalCap)
	}

	// /metrics exposes the labeled tenant/group families.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rendered := string(raw)
	for _, want := range []string{
		`harmonyd_tenant_tasks_ingested_total{tenant="api"} 8`,
		`harmonyd_tenant_tasks_ingested_total{tenant="web"} 4`,
		`harmonyd_group_cost_dollars{group="g0"}`,
		`harmonyd_group_ticks_total{group="g1"} 1`,
		`harmonyd_group_slo_violations_total`,
		`harmonyd_tenant_queue_depth{tenant="batch"}`,
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Per-group engine series live under /metrics/{group}.
	resp, err = http.Get(srv.URL + "/metrics/g0")
	if err != nil {
		t.Fatal(err)
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "harmonyd_ticks_total 1") {
		t.Error("/metrics/g0 missing the group engine series")
	}
	resp, err = http.Get(srv.URL + "/metrics/g9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown group metrics = %d", resp.StatusCode)
	}
}

// TestN1EndToEndBitIdentical streams a single-tenant workload through the
// multi-tenant HTTP path — POST /v1/tasks per period, POST /v1/tick at
// each boundary — and checks the final plan is byte-for-byte the
// single-tenant daemon.Replay plan.
func TestN1EndToEndBitIdentical(t *testing.T) {
	const periods = 3
	tasks := stream(periods, "app")

	want, err := daemon.Replay(testBase(t), tasks, periods)
	if err != nil {
		t.Fatal(err)
	}

	s, _ := newTestServer(t, ServerConfig{}, Spec{Name: "app"})
	srv := httptest.NewServer(s)
	defer srv.Close()

	i := 0
	for k := 1; k <= periods; k++ {
		boundary := float64(k) * defaultPeriodSeconds
		var window []trace.Task
		for i < len(tasks) && tasks[i].Submit < boundary {
			window = append(window, tasks[i])
			i++
		}
		if len(window) > 0 {
			code, ir := postTasks(t, srv.URL, taskNDJSON(window...))
			if code != http.StatusAccepted || ir.Accepted != len(window) {
				t.Fatalf("period %d ingest: status %d response %+v", k, code, ir)
			}
		}
		resp, err := http.Post(srv.URL+"/v1/tick", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d status = %d", k, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	var planBody struct {
		Groups map[string]*daemon.Plan `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&planBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := planBody.Groups["g0"]
	if got == nil {
		t.Fatalf("no g0 plan: %v", planBody.Groups)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("N=1 HTTP plan differs:\n  daemon: %s\n  tenant: %s", wantJSON, gotJSON)
	}
}

func TestPanicRecoveryAndHealth(t *testing.T) {
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
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}
