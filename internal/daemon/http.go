package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"harmony/internal/metrics"
)

// Router is the HTTP shell both front-ends share: a route table behind
// panic recovery and per-route request counting, with /healthz and
// /metrics. Each front-end registers its own handlers on it — their plan
// and stats shapes differ — and embeds it to become an http.Handler.
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

// encodeJSON writes v in the daemon's indented wire format.
func encodeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteJSON answers a request with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//harmony:allow errflow HTTP response write; the client disconnecting is not an error we can handle
	_ = encodeJSON(w, v)
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
