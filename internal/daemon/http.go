package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"harmony/internal/metrics"
)

// Router is the HTTP shell of the front-end (tenant.Server): a route
// table behind panic recovery and per-route request counting, with
// /healthz and /metrics. The front-end registers its handlers on it and
// embeds it to become an http.Handler.
type Router struct {
	*http.ServeMux
	panics   *metrics.Counter
	requests *metrics.CounterVec
}

// NewRouter returns a router that counts on, and serves, r.
func NewRouter(r *metrics.Registry) *Router {
	rt := &Router{
		ServeMux: http.NewServeMux(),
		panics:   r.Counter("harmonyd_panics_recovered_total", "Panics recovered by the HTTP middleware."),
		requests: r.CounterVec("harmonyd_http_requests_total", "HTTP requests served, by registered route pattern.", "route"),
	}
	rt.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	rt.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { WriteMetrics(w, r) })
	return rt
}

// ServeHTTP implements http.Handler with panic recovery around the mux.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			rt.panics.Inc()
			WriteJSONError(w, http.StatusInternalServerError, fmt.Sprintf("panic: %v", v))
		}
	}()
	// Count by the pattern the request matched, never by its raw path: a
	// client must not be able to mint series.
	_, pattern := rt.ServeMux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	rt.requests.With(pattern).Inc()
	rt.ServeMux.ServeHTTP(w, r)
}

// ServerConfig parameterizes the HTTP front-end.
type ServerConfig struct {
	// QueueSize caps the tasks waiting across every tenant's ingest
	// queue, so one tenant cannot starve the rest of queue memory, and
	// sizes each tenant queue whose Spec sets none (default 65536). Tasks
	// beyond it are rejected with 429.
	QueueSize int
	// TickDeadline bounds each control-loop solve (default 30s).
	TickDeadline time.Duration
}

// WithDefaults returns cfg with each unset field at its default.
func (cfg ServerConfig) WithDefaults() ServerConfig {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 65536
	}
	if cfg.TickDeadline <= 0 {
		cfg.TickDeadline = 30 * time.Second
	}
	return cfg
}

// IngestReply is the body of a POST /v1/tasks answer in both modes.
type IngestReply struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected,omitempty"`
	Invalid  int    `json:"invalid,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Write answers an ingest: 429 when a valid task found no room, else 400
// naming firstInvalid when nothing was valid, else 202.
func (ir IngestReply) Write(w http.ResponseWriter, firstInvalid error) {
	switch {
	case ir.Rejected > 0:
		ir.Error = "ingest queue full"
		WriteJSON(w, http.StatusTooManyRequests, ir)
	case ir.Invalid > 0 && ir.Accepted == 0:
		ir.Error = firstInvalid.Error()
		WriteJSON(w, http.StatusBadRequest, ir)
	default:
		WriteJSON(w, http.StatusAccepted, ir)
	}
}

// TickStatus maps a forced tick's outcome to the HTTP status of
// POST /v1/tick.
func TickStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrTickInFlight):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// WriteJSON answers a request with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//harmony:allow errflow HTTP response write; the client disconnecting is not an error we can handle
	_ = enc.Encode(v)
}

// WriteJSONError answers a request with {"error": msg}.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// WriteMetrics answers a request with a registry in the Prometheus text
// exposition format.
func WriteMetrics(w http.ResponseWriter, r *metrics.Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	//harmony:allow errflow HTTP response write; the client disconnecting is not an error we can handle
	io.WriteString(w, r.Render())
}
