package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"
)

// Frontend is what the run loop drives: an HTTP API over an ingest
// pipeline and a control loop. The single-tenant Server and the
// multi-tenant tenant.Server both satisfy it.
type Frontend interface {
	http.Handler
	// ForceTick flushes the ingest lanes and runs one control period
	// under the tick deadline. Like Plan it returns the plan document in
	// its wire shape.
	ForceTick(ctx context.Context) (interface{}, error)
	// Plan returns the current plan document.
	Plan() (interface{}, error)
	// TickDeadline bounds each tick and the shutdown drain.
	TickDeadline() time.Duration
	// Close stops the ingest lanes once the listener is down.
	Close()
}

// RunConfig parameterizes a daemon process.
type RunConfig struct {
	// Addr is the listen address (e.g. ":8080"). Required.
	Addr string
	// TickEvery is the wall-clock interval between automatic control
	// ticks. 0 disables automatic ticks (they can still be forced via
	// POST /v1/tick) — useful for tests and replay drivers.
	TickEvery time.Duration
	// FinalPlan, when non-nil, receives the final plan as JSON during
	// graceful shutdown.
	FinalPlan io.Writer
	// Log receives operational messages; log.Default() when nil.
	Log *log.Logger
	// Ready, when non-nil, receives the bound listen address and is then
	// closed. For tests and for ":0" listeners.
	Ready chan<- string
}

// Run serves fe until ctx is cancelled (SIGINT/SIGTERM when the caller
// wires signal.NotifyContext), then shuts down gracefully: the ingest
// lanes are flushed, one final control tick runs under the tick deadline
// so the last arrival window is provisioned, the final plan is written to
// cfg.FinalPlan, the HTTP listener drains, and the lanes are closed.
func Run(ctx context.Context, fe Frontend, cfg RunConfig) error {
	if cfg.Addr == "" {
		return errors.New("daemon: listen address required")
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("daemon: listen %s: %w", cfg.Addr, err)
	}
	httpSrv := &http.Server{Handler: fe}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	cfg.Log.Printf("harmonyd: listening on %s", ln.Addr())
	if cfg.Ready != nil {
		cfg.Ready <- ln.Addr().String()
		close(cfg.Ready)
	}

	var tickC <-chan time.Time
	if cfg.TickEvery > 0 {
		//harmony:allow detertaint the run loop's tick cadence is genuinely wall-clock; Replay is the deterministic reference
		ticker := time.NewTicker(cfg.TickEvery)
		defer ticker.Stop()
		tickC = ticker.C
	}

loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case err := <-serveErr:
			return fmt.Errorf("daemon: serve: %w", err)
		case <-tickC:
			if _, err := fe.ForceTick(context.Background()); err != nil {
				cfg.Log.Printf("harmonyd: tick: %v", err)
			}
		}
	}

	// Graceful shutdown: final flush + tick + plan dump, bounded by the
	// tick deadline, then listener drain.
	cfg.Log.Printf("harmonyd: shutting down")
	if _, err := fe.ForceTick(context.Background()); err != nil {
		cfg.Log.Printf("harmonyd: final tick: %v", err)
	}
	if cfg.FinalPlan != nil {
		if plan, err := fe.Plan(); err == nil {
			if err := encodeJSON(cfg.FinalPlan, plan); err != nil {
				cfg.Log.Printf("harmonyd: final plan: %v", err)
			}
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), fe.TickDeadline())
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("daemon: shutdown: %w", err)
	}
	<-serveErr // http.ErrServerClosed
	// With the listener drained nothing can enqueue anymore; stop the
	// ingest workers so no goroutine outlives Run.
	fe.Close()
	return nil
}
