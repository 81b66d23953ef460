package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"harmony"
	"harmony/benchmark/layers"
)

// The traced run: the workload repeated once with spans, the layers
// probed on inputs captured from that same run, and the duplicated
// wiring proven to be the same program by exact equality with the
// untraced run. End-to-end metrics never come from here.

// perLayer are the metrics of a traced run (-trace 1), reported by every
// workload. A layer the workload bypasses reads 0 with n=0: the count or
// busy time of a layer that did no work is 0, and a latency without
// samples has its sample-count metric at 0 beside it. The first block
// are the issue's path-specific end-to-end metrics, kept under their
// names; they are taken from the untraced leg of the traced invocation.
var perLayer = []metricDef{
	// Offline outcomes in the paper's currency (sim_*).
	{"energy_kwh", "kWh", "lower", 0, "simulated energy (repeats exactly)"},
	{"cost_usd_per_ktask", "usd", "lower", 0, "1000*(EnergyCost+SwitchCost)/Scheduled"},
	{"delay_prod_mean_s", "s", "lower", 0, "production-group mean scheduling delay, simulated (SLO 120 s)"},
	{"alloc_bytes_per_task", "B", "lower", 0, "ScaleMetrics.BytesPerTask"},
	// Online latencies (online_*), from the due time (open loop) or the send (closed loop).
	{"ingest_posts", "count", "higher", 0, "POST /v1/tasks sent"},
	{"ingest_p50_ms", "ms", "lower", 0, "POST /v1/tasks to response"},
	{"ingest_p99_ms", "ms", "lower", 0, "POST /v1/tasks to response"},
	{"ticks", "count", "higher", 0, "POST /v1/tick sent"},
	{"tick_p50_ms", "ms", "lower", 0, "POST /v1/tick to plan in hand"},
	{"tick_p90_ms", "ms", "lower", 0, "POST /v1/tick to plan in hand"},
	{"reads", "count", "higher", 0, "GETs of the 50 Hz reader (online_tenants_catchup)"},
	{"read_p50_ms", "ms", "lower", 0, "/v1/plan, /v1/stats, /metrics pooled"},
	{"read_p95_ms", "ms", "lower", 0, "/v1/plan, /v1/stats, /metrics pooled"},
	{"server_cpu_s", "s", "lower", 0, "user+sys of harmonyd over the measured phase"},
	{"peak_rss_mb", "MB", "lower", 0, "peak resident set of the process under test (GC-timing dependent: spread 15%, so not end-to-end)"},

	// trace
	{"trace.gen_ns_per_task", "ns", "lower", 0, "probe: drain NewGenSource on the scenario"},
	{"trace.next_busy_share", "ratio", "lower", 0, "in situ: time inside Source.Next / sim.Run wall"},
	{"trace.jsonl_decode_ns_per_task", "ns", "lower", 0, "probe: JSONLSource over the scenario's first tasks"},
	{"trace.csv_decode_ns_per_task", "ns", "lower", 0, "probe: CSVSource over the same tasks"},
	// classify (+kmeans)
	{"classify.characterize_s", "s", "lower", 0, "probe: Characterize on the 2 h prefix"},
	{"classify.initial_ns_per_task", "ns", "lower", 0, "Labeler.Initial (in situ 1-in-64 sampled offline; probe loop online)"},
	{"classify.initial_calls", "count", "lower", 0, "Labeler.Initial calls"},
	{"classify.refresh_ns_per_call", "ns", "lower", 0, "Labeler.Refresh via Relabel (in situ, offline)"},
	{"classify.refresh_calls", "count", "lower", 0, "Labeler.Refresh calls (in situ, offline)"},
	// forecast
	{"forecast.history_len", "count", "lower", 0, "periods of captured arrival history"},
	{"forecast.fits_per_tick", "count", "lower", 0, "forecaster refits per control period (one per task type)"},
	{"forecast.arima_fit_us_h288", "us", "lower", 0, "probe: ARIMA(2,0,1) Fit+Forecast(2), busiest class, one day of history"},
	{"forecast.arima_fit_us_hmid", "us", "lower", 0, "same at half the run's history (the median tick)"},
	{"forecast.arima_fit_us_hmax", "us", "lower", 0, "same at the run's full history (the last tick)"},
	{"forecast.auto_fit_us_h288", "us", "lower", 0, "probe: AutoARIMA"},
	{"forecast.seasonal_fit_us_h288", "us", "lower", 0, "probe: SeasonalNaive"},
	{"forecast.ewma_fit_us_h288", "us", "lower", 0, "probe: EWMA"},
	{"forecast.holtwinters_fit_us_h576", "us", "lower", 0, "probe: HoltWinters on two days (0 when the run is shorter)"},
	// queueing
	{"queueing.min_containers_cold_ns", "ns", "lower", 0, "probe: MinContainers on captured (lambda, mu, CV2, SLO)"},
	{"queueing.min_containers_hint_ns", "ns", "lower", 0, "probe: MinContainersHint, hint = previous period's answer"},
	{"queueing.wait_evals_cold", "count", "lower", 0, "MGcWait evaluations per cold solve"},
	{"queueing.wait_evals_hint", "count", "lower", 0, "MGcWait evaluations per hinted solve"},
	// core / lp / binpack
	{"core.captured_ticks", "count", "higher", 0, "LP instances captured (first day of the run)"},
	{"core.relax_cold_ms", "ms", "lower", 0, "probe: SolveRelaxed on captured instances"},
	{"core.relax_warm_ms", "ms", "lower", 0, "probe: SolveRelaxedWarm chained over them"},
	{"lp.iterations_cold", "count", "lower", 0, "Plan.Iterations, cold"},
	{"lp.iterations_warm", "count", "lower", 0, "Plan.Iterations, warm"},
	{"core.step_ms", "ms", "lower", 0, "probe: shadow Controller.Step chain on captured demand/active/price"},
	{"core.realize_full_us", "us", "lower", 0, "probe: Controller.Realize"},
	{"core.realize_delta_us", "us", "lower", 0, "probe: Controller.RealizeDelta against the previous decision"},
	{"core.delta_reuse_ratio", "ratio", "higher", 0, "DeltaStats reused/(reused+repacked); /v1/stats online"},
	{"core.delta_full_repacks", "count", "lower", 0, "DeltaStats.FullRepacks; /v1/stats online"},
	{"core.plan_dropped_share", "ratio", "lower", 0, "containers the packing dropped / planned"},
	// sched
	{"sched.period_ms_p50", "ms", "lower", 0, "in situ: sim.Policy.Period (offline)"},
	{"sched.period_ms_p90", "ms", "lower", 0, "in situ"},
	{"sched.period_busy_share", "ratio", "lower", 0, "in situ: time inside Period / sim.Run wall"},
	{"sched.period_growth_ratio", "ratio", "lower", 0, "mean of the last 10% of ticks / mean of ticks 25-168"},
	{"sched.period_residual_ms", "ms", "lower", 0, "period p50 - fits*arima(hmid) - sizing - core.step_ms: the unexplained part"},
	// sim
	{"sim.self_s", "s", "lower", 0, "run span minus source, policy and classify children"},
	{"sim.self_ns_per_task", "ns", "lower", 0, "sim.self_s per task"},
	{"sim.periods", "count", "lower", 0, "control periods simulated"},
	{"sim.switch_events", "count", "lower", 0, "SwitchEvents"},
	{"sim.peak_heap_mb", "MB", "lower", 0, "ScaleMetrics.PeakHeapBytes"},
	// daemon
	{"daemon.decode_ns_per_task", "ns", "lower", 0, "probe: DecodeTasks on the very bodies sent"},
	{"daemon.ingest_ns_per_task", "ns", "lower", 0, "probe: Engine.Ingest (online_replay)"},
	{"daemon.tick_ms_p50", "ms", "lower", 0, "probe: in-process Engine.Tick over the same windows (online_replay)"},
	{"daemon.tick_http_overhead_ms", "ms", "lower", 0, "client tick p50 - harmonyd_tick_duration_seconds sum/count from /metrics"},
	{"daemon.snapshot_us", "us", "lower", 0, "probe: Engine.Snapshot (Multi.Snapshot in tenant mode)"},
	{"daemon.forecast_backtest_ms", "ms", "lower", 0, "probe: Engine.ForecastBacktest (only daemon.Server's /v1/stats runs it)"},
	{"daemon.queue_depth_max", "count", "lower", 0, "scraped before every tick: ingest queue depth"},
	{"daemon.rejected_total", "count", "lower", 0, "scraped: harmonyd_ingest_rejected_total"},
	{"daemon.relabels_total", "count", "lower", 0, "scraped: harmonyd_relabels_total"},
	{"daemon.label_fallbacks_total", "count", "lower", 0, "scraped: harmonyd_label_fallback_total"},
	// tenant
	{"tenant.ingest_ns_per_task", "ns", "lower", 0, "probe: Multi.Ingest (online_tenants_catchup)"},
	{"tenant.tick_ms_p50", "ms", "lower", 0, "probe: Multi.Tick (online_tenants_catchup)"},
	// metrics
	{"metrics.render_us", "us", "lower", 0, "probe: Registry.Render after the in-process replay"},
	// generator / process: sanity of the measurement itself
	{"gen.lateness_ms_max", "ms", "lower", 0, "open loop: latest send after its due time"},
	{"gen.starved_posts", "count", "lower", 0, "writer requests the generator itself sent late (asserted <= 5% of them)"},
	{"gen.late_requests", "count", "lower", 0, "open-loop requests answered past their limit: not failed, but off ok_share"},
	{"harmonyd.start_s", "s", "lower", 0, "exec to first /healthz 200"},
	{"trace.overhead_share", "ratio", "lower", 0, "1 - traced tasks_per_s / untraced tasks_per_s"},
}

func (rc *runContext) scenario(cbs bool, charJSON []byte) layers.Scenario {
	return layers.Scenario{
		Seed: rc.Scenario, Hours: rc.Size.Hours, Rate: rc.W.Rate, Scale: rc.W.Scale,
		CBS: cbs, CharJSON: charJSON,
	}
}

func (rc *runContext) dumpPath() string {
	return filepath.Join(rc.BuildDir, fmt.Sprintf("plan-%s-%d.json", rc.W.Name, rc.Seed))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// sharedProbes are the probes every workload runs on its own scenario.
func sharedProbes(l values, sc layers.Scenario) error {
	tr, err := layers.ProbeTrace(sc)
	if err != nil {
		return err
	}
	ch, err := layers.ProbeCharacterize(sc, prefixHours)
	if err != nil {
		return err
	}
	mergeLayer(l, tr, ch)
	return nil
}

func mergeLayer(l values, ms ...layers.Metrics) {
	for _, m := range ms {
		for k, v := range m {
			l.set(k, v)
		}
	}
}

// tickProbes runs the probes of the layers inside a control period on
// the captured inputs and checks the shadow controller reproduced the
// run's decisions.
func tickProbes(out *outcome, in *layers.Inputs) error {
	q, err := layers.ProbeQueueing(in)
	if err != nil {
		return err
	}
	c, matched, err := layers.ProbeCore(in)
	if err != nil {
		return err
	}
	mergeLayer(out.Layers, layers.ProbeForecast(in), q, c)
	out.check("shadow_step_matches", matched, "shadow Controller.Step chain over %d captured LP instances vs the run's decisions", len(in.Plans))
	return nil
}

// traceSim repeats the offline workload once through layers.TraceSim
// and fills the per-layer metrics. ref is the untraced facade run.
func (rc *runContext) traceSim(out *outcome, ref simRun, policy harmony.Policy, charJSON []byte) error {
	cbs := policy == harmony.PolicyCBS
	sc := rc.scenario(cbs, charJSON)
	rec := layers.NewRecorder(fmt.Sprintf("%s-seed%d-scenario%d", rc.W.Name, rc.Seed, rc.Scenario))
	st, err := layers.TraceSim(sc, rec)
	if err != nil {
		return err
	}
	out.Spans = rec

	res := ref.res
	want := layers.SimStats{
		Tasks: ref.sm.Tasks, EnergyKWh: res.EnergyKWh, EnergyCost: res.EnergyCost, SwitchCost: res.SwitchCost,
		SwitchEvents: res.SwitchEvents, Scheduled: res.Scheduled, Unscheduled: res.Unscheduled, Completed: res.Completed,
		MeanDelay: [3]float64{res.MeanDelaySeconds[harmony.GroupGratis], res.MeanDelaySeconds[harmony.GroupOther], res.MeanDelaySeconds[harmony.GroupProduction]},
	}
	out.check("traced_equals_untraced", st.Stats == want, "traced %+v vs facade %+v", st.Stats, want)

	l := out.Layers
	wall := float64(st.WallNs)
	share := func(name string) (busyShare, nsPerCall, calls float64) {
		ns, n := rec.BusyNs(name)
		if n == 0 {
			return 0, 0, 0
		}
		return float64(ns) / wall, float64(ns) / float64(n), float64(n)
	}
	nextShare, _, _ := share("trace.Next")
	initShare, initNs, initCalls := share("classify.Initial")
	refreshShare, refreshNs, refreshCalls := share("classify.Refresh")
	periodShare, _, _ := share("sched.Period")
	self := float64(rec.SelfNs(st.Root))
	l.set("trace.next_busy_share", nextShare)
	l.set("sched.period_busy_share", periodShare)
	l.set("sim.self_s", self/1e9)
	l.set("sim.self_ns_per_task", self/float64(st.Stats.Tasks))
	l.set("trace.overhead_share", 1-float64(st.Stats.Tasks)/(wall/1e9)/ref.sm.TasksPerSecond)
	budget := periodShare + self/wall + nextShare + initShare + refreshShare
	out.check("budget_closed", budget >= 0.95, "sched %.3f + sim self %.3f + trace %.3f + classify %.3f = %.3f of wall",
		periodShare, self/wall, nextShare, initShare+refreshShare, budget)

	if err := sharedProbes(l, sc); err != nil {
		return err
	}
	if !cbs {
		return nil
	}
	l.set("classify.initial_ns_per_task", initNs)
	l.set("classify.initial_calls", initCalls)
	l.set("classify.refresh_ns_per_call", refreshNs)
	l.set("classify.refresh_calls", refreshCalls)

	periodMs := make([]float64, len(st.Ticks))
	for i, tk := range st.Ticks {
		periodMs[i] = ms(tk.PolicyNs)
	}
	sorted := sortedCopy(periodMs)
	l.setN("sched.period_ms_p50", quantile(sorted, 0.5), periodMs)
	l.setN("sched.period_ms_p90", quantile(sorted, 0.9), periodMs)
	if n := len(periodMs); n >= 2*168 {
		l.set("sched.period_growth_ratio", mean(periodMs[n-n/10:])/mean(periodMs[25:168]))
	}

	in, err := layers.CapturePlans(sc, st.Ticks, rc.dumpPath())
	if err != nil {
		return err
	}
	if err := tickProbes(out, in); err != nil {
		return err
	}
	sizingMs := l["forecast.fits_per_tick"].V * 2 * l["queueing.min_containers_hint_ns"].V / 1e6 // types x horizon
	l.set("sched.period_residual_ms", l["sched.period_ms_p50"].V-
		l["forecast.fits_per_tick"].V*l["forecast.arima_fit_us_hmid"].V/1e3-sizingMs-l["core.step_ms"].V)
	return nil
}

// scrape is the last value of every series of a Prometheus text page.
type scrape map[string]float64

func parseScrape(text []byte) scrape {
	s := scrape{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				s[line[:i]] = v
			}
		}
	}
	return s
}

// sum adds every series of a family (all label values).
func (s scrape) sum(family string) float64 {
	total := 0.0
	for k, v := range s {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// traceOnline repeats the online workload against a second, independent
// harmonyd with scrapes around every tick, then replays the same bodies
// through the in-process engine and probes the layers inside the tick.
func (rc *runContext) traceOnline(out *outcome, bin string, s *onlineSetup, mode onlineMode, ref *replayResult) error {
	if err := rc.startHarmonyd(bin, s, mode); err != nil {
		return err
	}
	defer s.d.stop()
	rec := layers.NewRecorder(fmt.Sprintf("%s-seed%d-scenario%d", rc.W.Name, rc.Seed, rc.Scenario))
	out.Spans = rec

	// Before each tick the queue still holds the period's last POSTs;
	// after it /v1/stats has the tick's counters.
	queueDepthMax := 0.0
	var lastStats []byte
	var scrapeErr error
	around := func(c *conn, before bool) {
		path := "/v1/stats"
		if before {
			path = "/metrics"
		}
		start := rec.Now()
		data, err := c.get(path)
		rec.Add(layers.Span{Name: "scrape " + path, StartNs: start, EndNs: rec.Now()})
		if err != nil {
			scrapeErr = err
			return
		}
		if !before {
			lastStats = data
			return
		}
		page := parseScrape(data)
		for _, family := range []string{"harmonyd_ingest_queue_depth", "harmonyd_tenant_queue_depth"} {
			if d := page.sum(family); d > queueDepthMax {
				queueDepthMax = d
			}
		}
	}
	root := rec.Add(layers.Span{Name: "replay", StartNs: rec.Now()})
	res, err := rc.replay(s, mode, around)
	if err != nil {
		return err
	}
	rec.End(root)
	if scrapeErr != nil {
		return fmt.Errorf("scrape: %w", scrapeErr)
	}
	origin := rec.Spans[root-1].StartNs
	var clientTickMs []float64
	for i := range res.writes {
		r := &res.writes[i]
		rec.Add(layers.Span{Parent: root, Name: "POST " + r.Op.Path, StartNs: origin + int64(r.Sent), EndNs: origin + int64(r.Sent+r.Service)})
		if r.Op.Kind == opTick {
			clientTickMs = append(clientTickMs, ms(int64(r.Service)))
		}
	}
	for i := range res.reads {
		r := &res.reads[i]
		rec.Add(layers.Span{Parent: root, Name: "GET " + r.Op.Path, StartNs: origin + int64(r.Sent), EndNs: origin + int64(r.Sent+r.Service)})
	}
	out.check("traced_plan_equals_untraced", bytes.Equal(res.finalPlan, ref.finalPlan),
		"final plan of two independent harmonyd processes on the same input (%d vs %d bytes)", len(res.finalPlan), len(ref.finalPlan))

	// The engine series: /metrics in single-tenant mode, /metrics/<group>
	// per group in tenant mode.
	writer := newConn(s.d.base)
	pages := []string{"/metrics"}
	if mode.tenants {
		pages = []string{"/metrics", "/metrics/g0", "/metrics/g1"}
	}
	engine := scrape{}
	serverTickMs := 0.0
	for _, path := range pages {
		data, err := writer.get(path)
		if err != nil {
			return err
		}
		page := parseScrape(data)
		for k, v := range page {
			engine[k] += v
		}
		if n := page["harmonyd_tick_duration_seconds_count"]; n > 0 {
			// Groups tick concurrently: the slowest group is the tick.
			if m := 1e3 * page["harmonyd_tick_duration_seconds_sum"] / n; m > serverTickMs {
				serverTickMs = m
			}
		}
	}
	l := out.Layers
	l.set("daemon.queue_depth_max", queueDepthMax)
	l.set("daemon.rejected_total", engine.sum("harmonyd_ingest_rejected_total"))
	l.set("daemon.relabels_total", engine.sum("harmonyd_relabels_total"))
	l.set("daemon.label_fallbacks_total", engine.sum("harmonyd_label_fallback_total"))
	l.set("daemon.tick_http_overhead_ms", summarize(clientTickMs).Median-serverTickMs)
	l.set("trace.overhead_share", 1-(float64(s.tasks)/res.wall.Seconds())/out.EndToEnd["tasks_per_s"].V)
	s.d.stop()

	// In-process: the same bodies through the engine, then the probes.
	var windows []layers.Window
	var w layers.Window
	for i := range s.ops {
		if o := &s.ops[i]; o.Kind == opIngest {
			w = append(w, o.Body)
		} else {
			windows = append(windows, w)
			w = nil
		}
	}
	sc := rc.scenario(true, s.charJSON)
	var tenantsJSON []byte
	if mode.tenants {
		tenantsJSON = []byte(tenantsConfig)
	}
	m, plan, in, err := layers.ReplayOnline(sc, windows, tenantsJSON, rc.dumpPath())
	if err != nil {
		return err
	}
	mergeLayer(l, m)
	out.check("inprocess_plan_equals_harmonyd", bytes.Equal(plan, ref.finalPlan),
		"final plan of the in-process replay vs the subprocess (%d vs %d bytes)", len(plan), len(ref.finalPlan))
	if err := sharedProbes(l, sc); err != nil {
		return err
	}
	if err := tickProbes(out, in); err != nil {
		return err
	}
	// The whole run's counters replace the probe's first-day ones.
	return setDeltaStats(l, lastStats)
}

// setDeltaStats takes the delta-placement counters of the whole run
// from the last /v1/stats scrape (summed over groups in tenant mode).
func setDeltaStats(l values, statsJSON []byte) error {
	type engineStats struct {
		Reused   float64 `json:"deltaReusedTypes"`
		Repacked float64 `json:"deltaRepackedTypes"`
		Full     float64 `json:"deltaFullRepacks"`
	}
	var stats struct {
		engineStats
		Groups []struct {
			Engine engineStats `json:"engine"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(statsJSON, &stats); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	total := stats.engineStats
	for _, g := range stats.Groups {
		total.Reused += g.Engine.Reused
		total.Repacked += g.Engine.Repacked
		total.Full += g.Engine.Full
	}
	l.set("core.delta_full_repacks", total.Full)
	if n := total.Reused + total.Repacked; n > 0 {
		l.set("core.delta_reuse_ratio", total.Reused/n)
	}
	return nil
}
