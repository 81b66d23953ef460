package tenant

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/daemon"
	"harmony/internal/metrics"
	"harmony/internal/trace"
)

// ServerConfig parameterizes the multi-tenant HTTP front-end.
type ServerConfig struct {
	// QueueSize bounds each tenant's private ingest queue when the
	// tenant's Spec does not set one (default 8192).
	QueueSize int
	// GlobalQueueCap bounds the total tasks waiting across every tenant
	// queue — a shared admission cap so one tenant cannot starve the rest
	// of queue memory (default 65536).
	GlobalQueueCap int
	// TickDeadline bounds each control-period solve (default 30s).
	TickDeadline time.Duration
}

func (cfg *ServerConfig) defaults() {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 8192
	}
	if cfg.GlobalQueueCap <= 0 {
		cfg.GlobalQueueCap = 65536
	}
	if cfg.TickDeadline <= 0 {
		cfg.TickDeadline = 30 * time.Second
	}
}

// Server is the multi-tenant HTTP front-end: tenant-tagged streaming
// ingest with per-tenant backpressure under a shared global cap, group
// plan/tick endpoints, per-tenant and per-group stats, and metrics.
type Server struct {
	*daemon.Router
	multi *Multi
	cfg   ServerConfig

	// Each tenant has a private lane, so its tasks apply in arrival order
	// and a slow tenant only backs up its own lane.
	lanes   map[string]*daemon.Lane
	ordered []*daemon.Lane // parallel to multi.tenants (tenant-name order)
	// globalDepth counts tasks admitted across all lanes; admission is
	// add-then-check with rollback so concurrent producers cannot
	// overshoot GlobalQueueCap.
	globalDepth atomic.Int64
	// push admits one task onto a tenant's lane (enqueue); tests
	// substitute it to script a refusal.
	push func(*daemon.Lane, trace.Task) bool

	mRejected   *metrics.Counter
	mIngestErrs *metrics.Counter
}

// NewServer wires the multi-tenant controller behind the HTTP API and
// starts one ingest lane per tenant.
func NewServer(m *Multi, cfg ServerConfig) *Server {
	cfg.defaults()
	r := m.cfg.Registry
	s := &Server{
		Router:      daemon.NewRouter(r),
		multi:       m,
		cfg:         cfg,
		lanes:       make(map[string]*daemon.Lane, len(m.tenants)),
		mRejected:   r.Counter("harmonyd_ingest_rejected_total", "Tasks rejected with 429 because a tenant queue or the global cap was full."),
		mIngestErrs: r.Counter("harmonyd_ingest_invalid_total", "Tasks rejected because they failed validation or named an unknown tenant."),
	}
	s.push = s.enqueue
	depthVec := r.GaugeVec("harmonyd_tenant_queue_depth", "Tasks waiting on the tenant's ingest queue.", "tenant")
	// The sink releases the global-cap slot enqueue took for the task.
	sink := func(t trace.Task) {
		if err := m.Ingest(t); err != nil {
			s.mIngestErrs.Inc()
		}
		s.globalDepth.Add(-1)
	}
	for _, ts := range m.tenants {
		size := ts.spec.QueueSize
		if size <= 0 {
			size = cfg.QueueSize
		}
		lane := daemon.NewLane(size, depthVec.With(ts.spec.Name), sink)
		s.lanes[ts.spec.Name] = lane
		s.ordered = append(s.ordered, lane)
	}

	s.HandleFunc("POST /v1/tasks", s.handleTasks)
	s.HandleFunc("POST /v1/tick", s.handleTick)
	s.HandleFunc("GET /v1/plan", s.handlePlan)
	s.HandleFunc("GET /v1/stats", s.handleStats)
	s.HandleFunc("GET /metrics/{group}", s.handleGroupMetrics)
	return s
}

// Close stops every tenant lane after it has drained what was admitted.
// Callers must stop the HTTP server first.
func (s *Server) Close() {
	for _, lane := range s.ordered {
		lane.Close()
	}
}

// Flush blocks until every task enqueued before the call has been applied
// to the engines. It is what makes a forced tick observe all prior POSTs.
// All barriers are planted before any is awaited, so the lanes drain
// concurrently.
func (s *Server) Flush() {
	var wg sync.WaitGroup
	wg.Add(len(s.ordered))
	for _, lane := range s.ordered {
		lane.Barrier(wg.Done)
	}
	wg.Wait()
}

// TickDeadline returns the bound on each control-period solve.
func (s *Server) TickDeadline() time.Duration { return s.cfg.TickDeadline }

// enqueue pushes one task onto its tenant's lane, honoring both the
// tenant's bound and the shared global cap. Admission against the global
// cap is add-then-check with rollback: overshooting producers retreat, so
// the cap holds under arbitrary concurrency.
func (s *Server) enqueue(lane *daemon.Lane, t trace.Task) bool {
	if s.globalDepth.Add(1) > int64(s.cfg.GlobalQueueCap) {
		s.globalDepth.Add(-1)
		return false
	}
	if !lane.TryPush(t) {
		s.globalDepth.Add(-1)
		return false
	}
	return true
}

type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected,omitempty"`
	Invalid  int    `json:"invalid,omitempty"`
	Error    string `json:"error,omitempty"`
}

// handleTasks ingests a tenant-tagged task stream (object, array, or
// NDJSON — the same wire formats as the single-tenant daemon). Each task
// routes by its "tenant" field; a ?tenant= query parameter supplies the
// tag for untagged tasks. Tasks naming unknown tenants or failing
// trace.Task.Validate are counted invalid at admission, and a body with
// nothing valid is a 400 naming the first reason; a full tenant queue (or
// the global cap) rejects the remainder of that tenant's tasks with 429.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	tasks, err := daemon.DecodeTasks(r.Body)
	if err != nil {
		daemon.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	defaultTenant := r.URL.Query().Get("tenant")
	var resp ingestResponse
	var firstInvalid error
	// Once a tenant is refused, the rest of its tasks in this body are
	// refused untried: a lane drained meanwhile must not admit a later
	// task ahead of an earlier refused one.
	var refused map[*tenantState]bool
	for _, t := range tasks {
		if t.Tenant == "" {
			t.Tenant = defaultTenant
		}
		ts, err := s.multi.resolve(t.Tenant)
		if err == nil {
			if err = t.Validate(); err != nil {
				s.multi.recordInvalid(ts)
			}
		}
		if err != nil {
			resp.Invalid++
			s.mIngestErrs.Inc()
			if firstInvalid == nil {
				firstInvalid = err
			}
			continue
		}
		if refused[ts] || !s.push(s.lanes[ts.spec.Name], t) {
			if refused == nil {
				refused = make(map[*tenantState]bool)
			}
			refused[ts] = true
			resp.Rejected++
			s.mRejected.Inc()
			s.multi.recordRejected(ts, 1)
			continue
		}
		resp.Accepted++
	}
	switch {
	case resp.Rejected > 0:
		resp.Error = "ingest queue full"
		daemon.WriteJSON(w, http.StatusTooManyRequests, resp)
	case resp.Invalid > 0 && resp.Accepted == 0:
		resp.Error = firstInvalid.Error()
		daemon.WriteJSON(w, http.StatusBadRequest, resp)
	default:
		daemon.WriteJSON(w, http.StatusAccepted, resp)
	}
}

// groupPlans is the wire shape of the per-group plans.
type groupPlans struct {
	Groups map[string]*daemon.Plan `json:"groups"`
	Error  string                  `json:"error,omitempty"`
}

// ForceTick flushes every tenant lane and runs one control period for
// all groups under the configured deadline. The returned document holds
// the plans of the groups that ticked, and the error text if any did not.
func (s *Server) ForceTick(parent context.Context) (interface{}, error) {
	s.Flush()
	ctx, cancel := context.WithTimeout(parent, s.cfg.TickDeadline)
	defer cancel()
	plans, err := s.multi.Tick(ctx)
	body := groupPlans{Groups: plans}
	if err != nil {
		body.Error = err.Error()
	}
	return body, err
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	body, err := s.ForceTick(r.Context())
	daemon.WriteJSON(w, daemon.TickStatus(err), body)
}

// Plan returns the current per-group plans: what GET /v1/plan serves and
// what the run loop dumps at shutdown.
func (s *Server) Plan() (interface{}, error) {
	plans, err := s.multi.Plans()
	return groupPlans{Groups: plans}, err
}

func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	plans, err := s.Plan()
	if err != nil {
		daemon.WriteJSONError(w, http.StatusNotFound, err.Error())
		return
	}
	daemon.WriteJSON(w, http.StatusOK, plans)
}

// queueStats is the per-tenant queue telemetry nested under /v1/stats.
type queueStats struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	queues := make(map[string]queueStats, len(s.ordered))
	for i, lane := range s.ordered {
		queues[s.multi.tenants[i].spec.Name] = queueStats{Depth: lane.Len(), Capacity: lane.Cap()}
	}
	daemon.WriteJSON(w, http.StatusOK, struct {
		MultiStats
		Queues      map[string]queueStats `json:"queues"`
		GlobalDepth int64                 `json:"globalDepth"`
		GlobalCap   int                   `json:"globalCap"`
	}{s.multi.Snapshot(), queues, s.globalDepth.Load(), s.cfg.GlobalQueueCap})
}

// handleGroupMetrics serves one group engine's private registry — the
// same families the single-tenant daemon exposes, scoped to the group.
// (GET /metrics serves the multi-tenant registry: the tenant- and
// group-labeled series plus the front-end's own counters.)
func (s *Server) handleGroupMetrics(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("group")
	for _, g := range s.multi.groups {
		if g.name == name {
			daemon.WriteMetrics(w, g.reg)
			return
		}
	}
	daemon.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("tenant: no group %q", name))
}
