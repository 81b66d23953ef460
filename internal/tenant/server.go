package tenant

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"harmony/internal/daemon"
	"harmony/internal/metrics"
	"harmony/internal/trace"
)

// Server is harmonyd's HTTP front-end: tenant-tagged streaming ingest
// with per-tenant backpressure under a shared global cap, the plan/tick
// endpoints, stats, and metrics. It serves a Multi built by New in the
// per-group shapes and one built by Single in the single-tenant shapes.
type Server struct {
	*daemon.Router
	multi *Multi
	cfg   daemon.ServerConfig
	shape shape

	// Each tenant has a private lane, so its tasks apply in arrival order
	// and a slow tenant only backs up its own lane.
	lanes   map[string]*daemon.Lane
	ordered []*daemon.Lane // parallel to multi.tenants (tenant-name order)
	// globalDepth counts tasks admitted across all lanes; admission is
	// add-then-check with rollback so concurrent producers cannot
	// overshoot the QueueSize cap.
	globalDepth atomic.Int64
	// push admits one task onto a tenant's lane (enqueue); tests
	// substitute it to script a refusal.
	push func(*daemon.Lane, trace.Task) bool

	mRejected   *metrics.Counter
	mIngestErrs *metrics.Counter
}

// shape is the part of the wire that depends on how the Multi was built:
// the bodies of POST /v1/tick, GET /v1/plan and GET /v1/stats, the final
// plan Run writes, and the registry /metrics serves.
type shape struct {
	reg   *metrics.Registry
	depth func(tenant string) *metrics.Gauge // a lane's queue-depth gauge
	tick  func(plans map[string]*daemon.Plan, err error) interface{}
	plan  func() (interface{}, error)
	stats func() interface{}
}

// groupShape renders a Multi built by New: plans keyed by group, the
// tenant and group stats, and the multi-tenant registry at /metrics.
func (s *Server) groupShape() shape {
	m := s.multi
	return shape{
		reg:   m.cfg.Registry,
		depth: m.cfg.Registry.GaugeVec("harmonyd_tenant_queue_depth", "Tasks waiting on the tenant's ingest queue.", "tenant").With,
		tick: func(plans map[string]*daemon.Plan, err error) interface{} {
			body := groupPlans{Groups: plans}
			if err != nil {
				body.Error = err.Error()
			}
			return body
		},
		plan: func() (interface{}, error) {
			plans, err := m.Plans()
			return groupPlans{Groups: plans}, err
		},
		stats: func() interface{} {
			queues := make(map[string]queueStats, len(s.ordered))
			for i, lane := range s.ordered {
				queues[m.tenants[i].spec.Name] = queueStats{Depth: lane.Len(), Capacity: lane.Cap()}
			}
			return struct {
				MultiStats
				Queues      map[string]queueStats `json:"queues"`
				GlobalDepth int64                 `json:"globalDepth"`
				GlobalCap   int                   `json:"globalCap"`
			}{m.Snapshot(), queues, s.globalDepth.Load(), s.cfg.QueueSize}
		},
	}
}

// singleShape renders a Multi built by Single as the single-tenant daemon
// always has: its one group's bare plan, or {"error": …} for a failed
// tick; the engine's stats with the queue and the forecast backtest; and
// the engine's registry at /metrics.
func (s *Server) singleShape() shape {
	g := s.multi.groups[0]
	depth := g.reg.Gauge("harmonyd_ingest_queue_depth", "Tasks waiting on the ingest queue.")
	return shape{
		reg:   g.reg,
		depth: func(string) *metrics.Gauge { return depth },
		tick: func(plans map[string]*daemon.Plan, err error) interface{} {
			if err != nil {
				return map[string]string{"error": err.Error()}
			}
			return plans[g.name]
		},
		plan: func() (interface{}, error) { return g.eng.Plan() },
		stats: func() interface{} {
			return struct {
				daemon.Stats
				QueueDepth    int `json:"queueDepth"`
				QueueCapacity int `json:"queueCapacity"`
				// ForecastBacktest is the mean absolute error per class
				// (tasks/period) of every one-step forecast the loop made —
				// the online counterpart of the offline rolling-origin
				// numbers from internal/forecast.
				ForecastBacktest map[string]float64 `json:"forecastBacktest,omitempty"`
			}{g.eng.Snapshot(), s.ordered[0].Len(), s.ordered[0].Cap(), g.eng.ForecastBacktest()}
		},
	}
}

// NewServer wires the controller behind the HTTP API and starts one
// ingest lane per tenant. cfg.QueueSize caps the tasks waiting across all
// lanes and sizes each lane whose Spec sets no QueueSize. The wire shape
// is chosen here, once, from how m was built.
func NewServer(m *Multi, cfg daemon.ServerConfig) *Server {
	s := &Server{multi: m, cfg: cfg.WithDefaults(), lanes: make(map[string]*daemon.Lane, len(m.tenants))}
	if m.implicit {
		s.shape = s.singleShape()
	} else {
		s.shape = s.groupShape()
	}
	r := s.shape.reg
	s.Router = daemon.NewRouter(r)
	s.mRejected = r.Counter("harmonyd_ingest_rejected_total", "Tasks rejected with 429 because an ingest queue or the global cap was full.")
	s.mIngestErrs = r.Counter("harmonyd_ingest_invalid_total", "Tasks rejected because they failed validation or named an unknown tenant.")
	s.push = s.enqueue
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
			size = s.cfg.QueueSize
		}
		lane := daemon.NewLane(size, s.shape.depth(ts.spec.Name), sink)
		s.lanes[ts.spec.Name] = lane
		s.ordered = append(s.ordered, lane)
	}

	s.HandleFunc("POST /v1/tasks", s.handleTasks)
	s.HandleFunc("POST /v1/tick", s.handleTick)
	s.HandleFunc("GET /v1/plan", s.handlePlan)
	s.HandleFunc("GET /v1/stats", s.handleStats)
	if !m.implicit {
		s.HandleFunc("GET /metrics/{group}", s.handleGroupMetrics)
	}
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

// enqueue pushes one task onto its tenant's lane, honoring both the
// tenant's bound and the shared global cap. Admission against the global
// cap is add-then-check with rollback: overshooting producers retreat, so
// the cap holds under arbitrary concurrency.
func (s *Server) enqueue(lane *daemon.Lane, t trace.Task) bool {
	if s.globalDepth.Add(1) > int64(s.cfg.QueueSize) {
		s.globalDepth.Add(-1)
		return false
	}
	if !lane.TryPush(t) {
		s.globalDepth.Add(-1)
		return false
	}
	return true
}

// handleTasks ingests a tenant-tagged task stream (object, array, or
// NDJSON). Each task routes by its "tenant" field; a ?tenant= query
// parameter supplies the tag for untagged tasks (a Single Multi's one
// tenant takes every task). Tasks naming unknown tenants or failing
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
	var resp daemon.IngestReply
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
				ts.invalid.Inc()
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
			ts.rejected.Inc()
			continue
		}
		resp.Accepted++
	}
	resp.Write(w, firstInvalid)
}

// groupPlans is the wire shape of the per-group plans.
type groupPlans struct {
	Groups map[string]*daemon.Plan `json:"groups"`
	Error  string                  `json:"error,omitempty"`
}

// tick flushes every tenant lane and runs one control period for all
// groups under the configured deadline, returning the plans of the groups
// that ticked.
func (s *Server) tick(parent context.Context) (map[string]*daemon.Plan, error) {
	s.Flush()
	ctx, cancel := context.WithTimeout(parent, s.cfg.TickDeadline)
	defer cancel()
	return s.multi.Tick(ctx)
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	plans, err := s.tick(r.Context())
	daemon.WriteJSON(w, daemon.TickStatus(err), s.shape.tick(plans, err))
}

func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	plan, err := s.shape.plan()
	if err != nil {
		daemon.WriteJSONError(w, http.StatusNotFound, err.Error())
		return
	}
	daemon.WriteJSON(w, http.StatusOK, plan)
}

// queueStats is the per-tenant queue telemetry nested under /v1/stats.
type queueStats struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, s.shape.stats())
}

// handleGroupMetrics serves one group engine's private registry — the
// same families the single-tenant daemon exposes, scoped to the group.
// (GET /metrics serves the multi-tenant registry: the tenant- and
// group-labeled series plus the front-end's own counters.) Only a Multi
// built by New has the route.
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
