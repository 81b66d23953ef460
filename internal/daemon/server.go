package daemon

import (
	"context"
	"net/http"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/trace"
)

// ServerConfig parameterizes the HTTP front-end.
type ServerConfig struct {
	// QueueSize bounds the ingest queue; tasks beyond it are rejected
	// with 429 (default 65536).
	QueueSize int
	// TickDeadline bounds each control-loop solve (default 30s).
	TickDeadline time.Duration
}

func (cfg *ServerConfig) defaults() {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 65536
	}
	if cfg.TickDeadline <= 0 {
		cfg.TickDeadline = 30 * time.Second
	}
}

// Server is the HTTP front-end of the daemon: streaming ingest with
// backpressure, the plan/stats endpoints, and Prometheus-style metrics.
type Server struct {
	*Router
	eng  *Engine
	cfg  ServerConfig
	lane *Lane

	mRejected   *metrics.Counter
	mIngestErrs *metrics.Counter
}

// NewServer wires the engine behind the HTTP API and starts the ingest
// lane that drains the bounded queue into the engine.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	cfg.defaults()
	r := eng.cfg.Registry
	s := &Server{
		Router:      NewRouter(r),
		eng:         eng,
		cfg:         cfg,
		mRejected:   r.Counter("harmonyd_ingest_rejected_total", "Tasks rejected with 429 because the ingest queue was full."),
		mIngestErrs: r.Counter("harmonyd_ingest_invalid_total", "Tasks rejected because they failed validation."),
	}
	s.lane = NewLane(cfg.QueueSize,
		r.Gauge("harmonyd_ingest_queue_depth", "Tasks waiting on the ingest queue."),
		func(t trace.Task) {
			if err := eng.Ingest(t); err != nil {
				s.mIngestErrs.Inc()
			}
		})

	s.HandleFunc("POST /v1/tasks", s.handleTasks)
	s.HandleFunc("POST /v1/tick", s.handleTick)
	s.HandleFunc("GET /v1/plan", s.handlePlan)
	s.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Close stops the ingest lane after it has drained everything already
// admitted. Callers must stop the HTTP server first.
func (s *Server) Close() { s.lane.Close() }

// Flush blocks until every task enqueued before the call has been applied
// to the engine. It is what makes a forced tick observe all prior POSTs.
func (s *Server) Flush() { s.lane.Flush() }

// TickDeadline returns the bound on each control-loop solve.
func (s *Server) TickDeadline() time.Duration { return s.cfg.TickDeadline }

type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected,omitempty"`
	Invalid  int    `json:"invalid,omitempty"`
	Error    string `json:"error,omitempty"`
}

// handleTasks validates every decoded task at admission: invalid ones are
// counted as invalid and never take a queue slot, and a body with no valid
// task is a 400 naming the first reason. Admission of the valid tasks
// stops at the first one the queue cannot hold.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	tasks, err := DecodeTasks(r.Body)
	if err != nil {
		WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	var resp ingestResponse
	var firstInvalid error
	valid := tasks[:0]
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			resp.Invalid++
			if firstInvalid == nil {
				firstInvalid = err
			}
			continue
		}
		valid = append(valid, t)
	}
	s.mIngestErrs.Add(float64(resp.Invalid))
	for resp.Accepted < len(valid) && s.lane.TryPush(valid[resp.Accepted]) {
		resp.Accepted++
	}
	resp.Rejected = len(valid) - resp.Accepted
	switch {
	case resp.Rejected > 0:
		s.mRejected.Add(float64(resp.Rejected))
		resp.Error = "ingest queue full"
		WriteJSON(w, http.StatusTooManyRequests, resp)
	case resp.Invalid > 0 && resp.Accepted == 0:
		resp.Error = firstInvalid.Error()
		WriteJSON(w, http.StatusBadRequest, resp)
	default:
		WriteJSON(w, http.StatusAccepted, resp)
	}
}

// ForceTick flushes the ingest lane and runs one control-period tick
// under the configured deadline, returning the new plan.
func (s *Server) ForceTick(parent context.Context) (interface{}, error) {
	s.Flush()
	ctx, cancel := context.WithTimeout(parent, s.cfg.TickDeadline)
	defer cancel()
	return s.eng.Tick(ctx)
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	plan, err := s.ForceTick(r.Context())
	if err != nil {
		WriteJSONError(w, TickStatus(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, plan)
}

// Plan returns the current plan: what GET /v1/plan serves and what the
// run loop dumps at shutdown.
func (s *Server) Plan() (interface{}, error) { return s.eng.Plan() }

func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	plan, err := s.Plan()
	if err != nil {
		WriteJSONError(w, http.StatusNotFound, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, plan)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := s.eng.Snapshot()
	WriteJSON(w, http.StatusOK, struct {
		Stats
		QueueDepth    int `json:"queueDepth"`
		QueueCapacity int `json:"queueCapacity"`
		// ForecastBacktest is the rolling-origin one-step MAE per class
		// (tasks/period) of the configured predictor over the recorded
		// arrival windows — the online counterpart of the offline
		// rolling-origin numbers from internal/forecast.
		ForecastBacktest map[string]float64 `json:"forecastBacktest,omitempty"`
	}{stats, s.lane.Len(), s.lane.Cap(), s.eng.ForecastBacktest()})
}
