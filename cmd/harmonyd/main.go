// Command harmonyd runs the HARMONY control loop as a long-running
// online provisioning daemon: tasks stream in over POST /v1/tasks
// (JSON object, array, or NDJSON), each control period the incremental
// pipeline (classification → forecast → M/G/c sizing → CBS/MPC →
// packing) refreshes the machine plan, and the current plan, stats, and
// Prometheus-style metrics are served over HTTP. SIGINT/SIGTERM trigger
// a graceful shutdown: the ingest queue is flushed, a final tick runs,
// and the final plan is written to stdout.
//
// Both modes run one front-end. Without -tenants the daemon serves one
// implicit tenant (tenant.Single) that takes every task, whatever its
// "tenant" field, and answers in the single-tenant wire shapes: a bare
// plan, flat stats. With -tenants pointing at a tenants config file
// (tenant.New) tasks route by their "tenant" field, SLO-compatible
// tenants share provisioning groups, every group runs its own pipeline,
// and plans and stats are keyed by group and tenant. A one-tenant config
// plans bit-for-bit as the default daemon does. Either way the Multi is
// served by tenant.NewServer under tenant.Run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/daemon"
	"harmony/internal/energy"
	"harmony/internal/sched"
	"harmony/internal/tenant"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "harmonyd:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: args are parsed with ContinueOnError,
// the final plan goes to out, and ready (when non-nil) receives the bound
// listen address.
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("harmonyd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address")
		charPath    = fs.String("char", "", "characterization JSON (from harmony-classify -o); required")
		scale       = fs.Int("scale", 100, "divide the Table II cluster size by this factor")
		mode        = fs.String("mode", "CBS", "container mode: CBS (spread) or CBP (pack)")
		period      = fs.Float64("period", 300, "control period in model-time seconds")
		horizon     = fs.Int("horizon", 0, "MPC look-ahead periods (0 = default 2)")
		tickWall    = fs.Duration("tick-every", 0, "wall-clock interval between automatic ticks (0 = tick only via POST /v1/tick)")
		deadline    = fs.Duration("tick-deadline", 30*time.Second, "per-tick solve deadline")
		queue       = fs.Int("queue", 65536, "ingest queue capacity (excess tasks get 429)")
		tenantsPath = fs.String("tenants", "", "tenants config JSON; enables multi-tenant mode")
		forecaster  = fs.String("forecaster", "arima", "arrival forecaster: arima, auto-arima, seasonal, ewma, or holtwinters")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *charPath == "" {
		return fmt.Errorf("missing -char (run harmony-classify -o to create one)")
	}
	// The engine and servers would quietly replace a non-positive period,
	// queue or deadline and a negative horizon with defaults, and a
	// negative tick interval would turn automatic ticks off. A NaN or
	// infinite period falls through to the controller's finite check.
	switch {
	case *scale < 1:
		return fmt.Errorf("-scale must be at least 1, got %d", *scale)
	case *period <= 0:
		return fmt.Errorf("-period must be positive, got %v", *period)
	case *horizon < 0:
		return fmt.Errorf("-horizon must be non-negative, got %d", *horizon)
	case *tickWall < 0:
		return fmt.Errorf("-tick-every must be non-negative, got %v", *tickWall)
	case *deadline <= 0:
		return fmt.Errorf("-tick-deadline must be positive, got %v", *deadline)
	case *queue <= 0:
		return fmt.Errorf("-queue must be positive, got %d", *queue)
	}
	var coreMode core.Mode
	switch *mode {
	case "CBS", "cbs":
		coreMode = core.CBS
	case "CBP", "cbp":
		coreMode = core.CBP
	default:
		return fmt.Errorf("unknown -mode %q (want CBS or CBP)", *mode)
	}
	predictor, err := sched.ParsePredictor(*forecaster)
	if err != nil {
		return fmt.Errorf("unknown -forecaster: %w", err)
	}

	f, err := os.Open(*charPath)
	if err != nil {
		return err
	}
	ch, err := classify.Load(f)
	f.Close() //harmony:allow errflow read-only close; a Load failure is what matters and is checked below
	if err != nil {
		return fmt.Errorf("load characterization: %w", err)
	}

	models, machines := energy.TableIIScaled(*scale)
	engCfg := daemon.Config{
		Machines:      machines,
		Models:        models,
		Char:          ch,
		Mode:          coreMode,
		PeriodSeconds: *period,
		Horizon:       *horizon,
		Forecaster:    predictor,
	}
	srvCfg := daemon.ServerConfig{QueueSize: *queue, TickDeadline: *deadline}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	var m *tenant.Multi
	if *tenantsPath != "" {
		tf, err := os.Open(*tenantsPath)
		if err != nil {
			return err
		}
		doc, err := tenant.Load(tf)
		tf.Close() //harmony:allow errflow read-only close; a Load failure is what matters and is checked below
		if err != nil {
			return fmt.Errorf("load tenants: %w", err)
		}
		if m, err = tenant.New(tenant.Config{
			Base:         engCfg,
			Tenants:      doc.Tenants,
			SLOTolerance: doc.SLOTolerance,
		}); err != nil {
			return err
		}
		logger.Printf("harmonyd: multi-tenant: %d tenants, %d groups", len(doc.Tenants), len(m.Groups()))
	} else {
		if m, err = tenant.Single(engCfg); err != nil {
			return err
		}
		loop := m.Groups()[0].Engine().PolicyConfig()
		logger.Printf("harmonyd: period %.0fs, %d task types", loop.PeriodSeconds, len(loop.Types))
	}
	return tenant.Run(ctx, tenant.NewServer(m, srvCfg), tenant.RunConfig{
		Addr:      *addr,
		TickEvery: *tickWall,
		FinalPlan: out,
		Log:       logger,
		Ready:     ready,
	})
}
