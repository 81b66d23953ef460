package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"harmony"
)

// The online path: the harmonyd binary of the commit under test as a
// subprocess, driven over loopback HTTP by this single process with at
// most two connections (one writer, one reader). Only the root facade
// (trace + characterization) and harmonyd's flags and routes are used.

// Latency limits of the open-loop workload: a request answered later
// than this after its due time counts as failed. Both limits are one
// period of wall time — a request must be answered within the period it
// was due in — rather than the issue's 20 ms for a POST: the 2-core VM
// stalls both processes for 15-25 ms in one run of four and for 50-90 ms
// in one of three, and a limit inside that noise makes ok_share measure
// the host (with 50 ms, three runs of ten lose 0.2-0.3% of their requests).
const (
	ingestLimit = replayPeriodWall
	tickLimit   = replayPeriodWall
	readHz      = 50
)

// serverProcs is harmonyd's GOMAXPROCS. The reference box has two cores
// and the generator is the second process: a server free to use both
// (it used 1.4 in the closed loop) shares them with its own load
// generator, and its throughput then follows whatever else the host
// runs — one busy neighbour thread cost 28% of tasks_per_s, against 5%
// with the server on one thread (README "Bounds").
const serverProcs = 1

// maxStarvedShare is how many writer requests the generator itself may
// send late (starveThreshold) before the run is declared unsound. A
// host stall starves one request (the ones behind it are sent at once);
// a generator that cannot keep its schedule starves most of them. Quiet
// runs starve 0-3 of ~2,300; the limit leaves room for a run that
// shares its cores with a busy neighbour.
const maxStarvedShare = 0.05

var tenantNames = []string{"a", "b", "c"}

// tenantsConfig puts a and b (SLOs within the default 2x tolerance) in
// one provisioning group and c, on the default SLO, in a second.
const tenantsConfig = `{"tenants":[{"name":"a","sloDelay":60},{"name":"b","sloDelay":100},{"name":"c"}]}` + "\n"

// buildHarmonyd compiles cmd/harmonyd of the checkout into the build
// directory. It runs once per invocation, before any set-up is timed.
func (rc *runContext) buildHarmonyd() (string, error) {
	bin := filepath.Join(rc.BuildDir, "bin", "harmonyd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/harmonyd")
	cmd.Dir = rc.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build harmonyd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running harmonyd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	mu      sync.Mutex
	logTail []string
	drained chan struct{} // stderr reached EOF
	stopped bool
	startS  float64 // exec to first /healthz 200
}

func startDaemon(bin string, args ...string) (*daemon, error) {
	start := time.Now()
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		defer close(addrc)
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.logTail = append(d.logTail, line); len(d.logTail) > 20 {
				d.logTail = d.logTail[1:]
			}
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addrc <- strings.Fields(rest)[0]
				sent = true
			}
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("harmonyd exited before listening:\n%s", d.log())
		}
		d.base = "http://" + addr
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("harmonyd did not report a listen address within 20 s")
	}
	// No keep-alive: the probe must not leave a third connection open.
	health := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := health.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("harmonyd /healthz never answered 200: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.startS = time.Since(start).Seconds()
	return d, nil
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, "\n")
}

// stop ends the process (SIGTERM, then SIGKILL after 15 s) and waits
// until it has exited. It is idempotent.
func (d *daemon) stop() {
	if d == nil || d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	d.cmd.Wait()
}

// cpuSeconds is the user+sys CPU the process has used so far, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks).
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// conn is one keep-alive connection to the daemon.
type conn struct {
	base   string
	client *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *conn) do(o *op) (int, []byte) {
	method := http.MethodGet
	var body io.Reader
	if o.Kind != opRead {
		method, body = http.MethodPost, bytes.NewReader(o.Body)
	}
	req, err := http.NewRequest(method, c.base+o.Path, body)
	if err != nil {
		return 0, nil
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

func (c *conn) get(path string) ([]byte, error) {
	status, data := c.do(&op{Kind: opRead, Path: path})
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return data, nil
}

// onlineSetup is the product of one online set-up: the request
// schedule and a daemon that answered /healthz.
type onlineSetup struct {
	ops      []op
	tasks    int
	charJSON []byte
	dir      string // per-run scratch: characterization and tenants files
	d        *daemon
}

// onlineMode distinguishes the two servers and loop disciplines.
type onlineMode struct {
	tenants   bool
	closed    bool
	chunkMax  int // tasks per POST at most; the run seed jitters sizes in [3/4 max, max]
	withReads bool
}

// setupOnline generates the scenario's trace, characterizes its 2 h
// prefix, encodes every request body, and starts harmonyd.
func (rc *runContext) setupOnline(bin string, mode onlineMode) (*onlineSetup, error) {
	ch, err := rc.characterize()
	if err != nil {
		return nil, err
	}
	var charJSON bytes.Buffer
	if err := ch.Save(&charJSON); err != nil {
		return nil, err
	}
	w, err := harmony.GenerateWorkload(rc.workloadConfig(rc.Size.Hours))
	if err != nil {
		return nil, err
	}

	// One NDJSON body per POST; period k's tasks are posted during period
	// k at evenly spaced due times, then the tick closes the window.
	rng := rand.New(rand.NewSource(rc.Seed))
	chunk := func() int { return mode.chunkMax - rng.Intn(mode.chunkMax/4+1) }
	s := &onlineSetup{charJSON: charJSON.Bytes(), dir: filepath.Join(rc.BuildDir, fmt.Sprintf("run-%d", os.Getpid()))}
	tasks := w.Trace.Tasks
	wall := rc.Size.PeriodWall
	for k, i := 0, 0; k < rc.Size.Periods; k++ {
		boundary := float64(k+1) * periodSeconds
		var posts []op
		for i < len(tasks) && tasks[i].Submit < boundary {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			n := 0
			for want := chunk(); n < want && i < len(tasks) && tasks[i].Submit < boundary; n, i = n+1, i+1 {
				t := tasks[i]
				if mode.tenants {
					t.Tenant = tenantNames[t.JobID%uint64(len(tenantNames))]
				}
				if err := enc.Encode(t); err != nil {
					return nil, err
				}
			}
			posts = append(posts, op{Kind: opIngest, Due: -1, Path: "/v1/tasks", Body: buf.Bytes(), Tasks: n})
			s.tasks += n
		}
		tick := op{Kind: opTick, Due: -1, Path: "/v1/tick"}
		if !mode.closed {
			slot := wall / time.Duration(len(posts)+1)
			for j := range posts {
				posts[j].Due = time.Duration(k)*wall + time.Duration(j)*slot
				posts[j].Limit = ingestLimit
			}
			tick.Due = time.Duration(k)*wall + time.Duration(len(posts))*slot
			tick.Limit = tickLimit
		}
		s.ops = append(append(s.ops, posts...), tick)
	}
	if err := rc.startHarmonyd(bin, s, mode); err != nil {
		return nil, err
	}
	return s, nil
}

// startHarmonyd writes the characterization (and tenants config) and
// starts a fresh daemon on it with default flags.
func (rc *runContext) startHarmonyd(bin string, s *onlineSetup, mode onlineMode) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	charPath := filepath.Join(s.dir, "classes.json")
	if err := os.WriteFile(charPath, s.charJSON, 0o644); err != nil {
		return err
	}
	args := []string{"-char", charPath, "-scale", strconv.Itoa(rc.W.Scale)}
	if mode.tenants {
		tenantsPath := filepath.Join(s.dir, "tenants.json")
		if err := os.WriteFile(tenantsPath, []byte(tenantsConfig), 0o644); err != nil {
			return err
		}
		args = append(args, "-tenants", tenantsPath)
	}
	var err error
	s.d, err = startDaemon(bin, args...)
	return err
}

// release stops the daemon and removes the run's scratch files.
func (s *onlineSetup) release() {
	s.d.stop()
	os.RemoveAll(s.dir)
}

// planJSON is the part of a returned plan the benchmark scores.
type planJSON struct {
	TotalActive int `json:"totalActive"`
	Machines    []struct {
		Active int `json:"active"`
	} `json:"machines"`
}

// scorePlans turns the tick responses into the two plan-quality
// numbers: mean powered machines per tick (summed over groups) and
// on/off transitions per tick, starting from an all-off fleet.
func scorePlans(responses [][]byte, tenants bool) (activeMean, switchesPerTick float64, err error) {
	prev := map[string][]int{}
	active, switches := 0, 0
	for _, body := range responses {
		groups := map[string]planJSON{}
		if tenants {
			var wrapped struct {
				Groups map[string]planJSON `json:"groups"`
			}
			if err := json.Unmarshal(body, &wrapped); err != nil {
				return 0, 0, fmt.Errorf("tick response: %w", err)
			}
			groups = wrapped.Groups
		} else {
			var p planJSON
			if err := json.Unmarshal(body, &p); err != nil {
				return 0, 0, fmt.Errorf("tick response: %w", err)
			}
			groups[""] = p
		}
		for name, p := range groups {
			active += p.TotalActive
			if prev[name] == nil {
				prev[name] = make([]int, len(p.Machines))
			}
			for m, mp := range p.Machines {
				d := mp.Active - prev[name][m]
				if d < 0 {
					d = -d
				}
				switches += d
				prev[name][m] = mp.Active
			}
		}
	}
	n := float64(len(responses))
	return float64(active) / n, float64(switches) / n, nil
}

// ingestedTasks reads tasksIngested back from /v1/stats (summed over
// tenants in tenant mode).
func ingestedTasks(c *conn, tenants bool) (int, error) {
	data, err := c.get("/v1/stats")
	if err != nil {
		return 0, err
	}
	var stats struct {
		TasksIngested int `json:"tasksIngested"`
		Tenants       []struct {
			TasksIngested int `json:"tasksIngested"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		return 0, err
	}
	total := stats.TasksIngested
	for _, t := range stats.Tenants {
		total += t.TasksIngested
	}
	return total, nil
}

// replayResult is one measured phase against one daemon.
type replayResult struct {
	writes, reads []opResult
	wall          time.Duration
	cpuSeconds    float64
	peakRSSMB     float64
	ingested      int
	finalPlan     []byte
}

// replay drives the measured phase: the writer connection sends the
// schedule in order; in read mode a second connection polls the read
// routes at a fixed 50 Hz from the first tick until the writer is done.
// aroundTick, when set, runs before and after every tick on the writer
// connection (the traced run's scrapes), outside every measured interval.
func (rc *runContext) replay(s *onlineSetup, mode onlineMode, aroundTick func(c *conn, before bool)) (*replayResult, error) {
	writer, reader := newConn(s.d.base), newConn(s.d.base)
	defer writer.client.CloseIdleConnections()
	defer reader.client.CloseIdleConnections()
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res := &replayResult{}
	clk := wallClock{start: time.Now()}

	var readerDone chan struct{}
	stopReader := make(chan struct{})
	startReader := func() {
		readerDone = make(chan struct{})
		routes := []string{"/v1/plan", "/v1/stats", "/metrics"}
		ops := make([]op, readHz*(4*rc.Seconds+60))
		first := clk.Now()
		for i := range ops {
			ops[i] = op{Kind: opRead, Due: first + time.Duration(i)*time.Second/readHz,
				Path: routes[(i+int(rc.Seed%3+3))%3]}
		}
		go func() {
			defer close(readerDone)
			res.reads = runLoop(clk, ops, reader.do, loopOptions{stop: stopReader})
		}()
	}

	do := writer.do
	if mode.withReads {
		do = func(o *op) (int, []byte) {
			status, body := writer.do(o)
			if o.Kind == opTick && readerDone == nil {
				startReader() // /v1/plan is 404 before the first tick
			}
			return status, body
		}
	}
	var opt loopOptions
	if aroundTick != nil {
		opt.around = func(o *op, before bool) {
			if o.Kind == opTick {
				aroundTick(writer, before)
			}
		}
	}
	res.writes = runLoop(clk, s.ops, do, opt)
	res.wall = clk.Now()
	close(stopReader)
	if readerDone != nil {
		<-readerDone
	}
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpuSeconds = cpu1 - cpu0
	res.peakRSSMB = peakRSSMB(s.d.cmd.Process.Pid)
	if res.ingested, err = ingestedTasks(writer, mode.tenants); err != nil {
		return nil, err
	}
	res.finalPlan = res.writes[len(res.writes)-1].Response
	return res, nil
}

func msOf(rs []opResult, kind opKind) []float64 {
	var out []float64
	for i := range rs {
		if rs[i].Op.Kind == kind {
			out = append(out, float64(rs[i].Latency)/float64(time.Millisecond))
		}
	}
	return out
}

// onlineOutcome turns a measured phase into metrics and checks.
func (rc *runContext) onlineOutcome(s *onlineSetup, mode onlineMode, res *replayResult, setup measurement) (*outcome, error) {
	out := newOutcome()
	all := append(append([]opResult(nil), res.writes...), res.reads...)
	accepted, late, bad5xx429, starved := 0, 0, 0, 0
	var lateness []float64
	var ticks [][]byte
	for i := range all {
		r := &all[i]
		if r.failed() {
			out.Failed++
		} else {
			if r.late() {
				late++ // off ok_share, but the tasks were taken
			}
			if r.Op.Kind == opIngest {
				accepted += r.Op.Tasks
			}
		}
		if r.Status == http.StatusTooManyRequests || r.Status >= 500 {
			bad5xx429++
		}
		if r.Starved && r.Op.Kind != opRead {
			starved++ // a late reader shows in read latency; only the writer is asserted
		}
		if r.Op.Due >= 0 {
			lateness = append(lateness, float64(r.Lateness)/float64(time.Millisecond))
		}
		if r.Op.Kind == opTick && r.Status == http.StatusOK {
			ticks = append(ticks, r.Response)
		}
	}
	out.Attempted = len(all)
	out.Measured = res.wall.Seconds()
	if len(ticks) == 0 {
		return nil, fmt.Errorf("no tick succeeded; harmonyd log:\n%s", s.d.log())
	}
	activeMean, switches, err := scorePlans(ticks, mode.tenants)
	if err != nil {
		return nil, err
	}

	e := out.EndToEnd
	e["setup_s"] = setup
	e.set("ok_share", 1-float64(out.Failed+late)/float64(out.Attempted))
	e.set("tasks_per_s", float64(accepted)/res.wall.Seconds())
	e.set("cpu_ms_per_ktask", 1e6*res.cpuSeconds/float64(s.tasks))
	e.set("active_machines_mean", activeMean)
	e.set("switches_per_period", switches)

	l := out.Layers
	// The tail percentiles have fixed names; the percentile rule says
	// whether this run has the samples to back them.
	var thin []string
	pct := func(name string, ms []float64, q float64) {
		l.setN(name, quantile(sortedCopy(ms), q), ms)
		if rule, _ := tailPercentile(len(ms)); q > 0.5 && q > rule {
			thin = append(thin, fmt.Sprintf("%s (%d samples)", name, len(ms)))
		}
	}
	ingest, tick, read := msOf(all, opIngest), msOf(all, opTick), msOf(all, opRead)
	pct("ingest_p50_ms", ingest, 0.50)
	pct("ingest_p99_ms", ingest, 0.99)
	pct("tick_p50_ms", tick, 0.50)
	pct("tick_p90_ms", tick, 0.90)
	if len(read) > 0 {
		pct("read_p50_ms", read, 0.50)
		pct("read_p95_ms", read, 0.95)
	}
	l.set("ingest_posts", float64(len(ingest)))
	l.set("ticks", float64(len(tick)))
	l.set("reads", float64(len(read)))
	l.set("server_cpu_s", res.cpuSeconds)
	l.set("peak_rss_mb", res.peakRSSMB)
	l.set("gen.lateness_ms_max", maxOf(lateness))
	l.set("gen.starved_posts", float64(starved))
	l.set("gen.late_requests", float64(late))
	l.set("harmonyd.start_s", s.d.startS)

	out.check("all_ingested", res.ingested == s.tasks, "/v1/stats tasksIngested %d vs %d sent", res.ingested, s.tasks)
	out.check("no_429_5xx", bad5xx429 == 0, "%d responses were 429 or 5xx", bad5xx429)
	out.check("all_ticks_planned", len(ticks) == rc.Size.Periods, "%d plans for %d ticks", len(ticks), rc.Size.Periods)
	out.check("generator_kept_schedule", float64(starved) <= maxStarvedShare*float64(len(res.writes)),
		"%d of %d writer requests delayed by the generator itself (max lateness %.2f ms)", starved, len(res.writes), maxOf(lateness))
	if !rc.Smoke { // a toy run has no tails to speak of
		out.check("percentile_rule", len(thin) == 0,
			"tail percentiles with fewer than %d samples beyond them (-seconds >= 10 gives enough): %d %v", minBeyond, len(thin), thin)
	}
	return out, nil
}

func runOnlineReplay(rc *runContext) (*outcome, error) {
	return rc.runOnline(onlineMode{chunkMax: 128})
}

func runOnlineTenants(rc *runContext) (*outcome, error) {
	return rc.runOnline(onlineMode{tenants: true, closed: true, chunkMax: 512, withReads: true})
}

func (rc *runContext) runOnline(mode onlineMode) (*outcome, error) {
	bin, err := rc.buildHarmonyd()
	if err != nil {
		return nil, err
	}
	s, setup, err := medianSetup(rc.setupReps(),
		func() (*onlineSetup, error) { return rc.setupOnline(bin, mode) },
		(*onlineSetup).release)
	if err != nil {
		return nil, err
	}
	defer s.release()
	res, err := rc.replay(s, mode, nil)
	if err != nil {
		return nil, err
	}
	out, err := rc.onlineOutcome(s, mode, res, setup)
	if err != nil {
		return nil, err
	}
	if rc.Trace {
		s.d.stop()
		if err := rc.traceOnline(out, bin, s, mode, res); err != nil {
			return nil, err
		}
	}
	return out, nil
}
