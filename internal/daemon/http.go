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
// /metrics. Each front-end registers its own handlers on it — their wire
// shapes differ — and embeds it to become an http.Handler.
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
		requests: r.CounterVec("harmonyd_http_requests_total", "HTTP requests served, by route.", "route"),
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
	rt.requests.With(r.URL.Path).Inc()
	rt.ServeMux.ServeHTTP(w, r)
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
