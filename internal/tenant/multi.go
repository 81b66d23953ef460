package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"harmony/internal/daemon"
	"harmony/internal/metrics"
	"harmony/internal/trace"
)

// Config parameterizes the multi-tenant controller.
type Config struct {
	// Base is the per-group engine configuration: machines, models,
	// characterization, mode, period, and so on. Base.SLODelay and
	// Base.Registry are overridden per group (each group gets the SLO the
	// grouping rule assigns and a private metrics registry).
	Base daemon.Config
	// Tenants declares the applications sharing the provisioning plane.
	Tenants []Spec
	// SLOTolerance is the grouping compatibility factor (default 2).
	SLOTolerance float64
	// Registry receives the tenant- and group-level series; a private
	// registry is created when nil. Per-group engine metrics live in each
	// group's own registry (served at /metrics/{group}), not here.
	Registry *metrics.Registry
}

// Routing errors.
var (
	// ErrUnknownTenant is returned when a task names a tenant that does
	// not exist (or carries no tenant tag while several are configured).
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	// ErrNoPlans is returned by Plans before any group has ticked.
	ErrNoPlans = errors.New("tenant: no plans yet")
)

// Group is one provisioning group: a set of SLO-compatible tenants served
// by a private daemon.Engine, so the group owns its own online
// classification state, warm LP basis, and delta-placement state.
type Group struct {
	name    string
	slo     float64 // smallest member SLO; 0 = sched's default
	eng     *daemon.Engine
	reg     *metrics.Registry
	members []*tenantState

	// Accounting series, resolved once in New and read back by Snapshot.
	ticks      *metrics.Counter
	violations *metrics.Counter
	cost       *metrics.Gauge // dollars; accumulated under mu

	// mu guards the fields below.
	mu         sync.Mutex
	prevActive []int
}

// Name returns the group's deterministic identifier ("g0", "g1", ...).
func (g *Group) Name() string { return g.name }

// Engine returns the group's control-loop engine.
func (g *Group) Engine() *daemon.Engine { return g.eng }

// tenantState is the per-tenant accounting the multi layer owns.
type tenantState struct {
	spec  Spec
	group *Group

	// Accounting series, resolved once in New and read back by Snapshot.
	ingested *metrics.Counter
	invalid  *metrics.Counter
	rejected *metrics.Counter // queue-full rejections, counted by the server
	cost     *metrics.Gauge   // dollars; accumulated under mu

	// mu guards the fields below.
	mu sync.Mutex
	// byClass[c] counts tasks labeled class c; the last slot counts tasks
	// whose priority group has no class.
	byClass []uint64
	window  uint64 // tasks since the group's last tick (cost attribution)
}

// Multi owns N tenants and their provisioning groups. Ingest may be called
// from any goroutine; Tick runs every group's control loop concurrently
// (each group serializes its own ticks exactly like a single engine).
type Multi struct {
	cfg     Config
	groups  []*Group
	tenants []*tenantState // sorted by name
	byName  map[string]*tenantState
	single  *tenantState // untagged-ingest target when exactly one tenant
	// implicit marks a Multi built by Single: its one tenant takes every
	// task, and its group's errors read as the engine's.
	implicit bool

	mGroupActive  *metrics.GaugeVec
	mGroupCont    *metrics.GaugeVec
	mGroupDropped *metrics.GaugeVec
}

// New validates the configuration, groups the tenants, and builds one
// engine per group.
func New(cfg Config) (*Multi, error) { return build(cfg, false) }

// Single builds the one-tenant Multi that single-tenant harmonyd serves:
// one implicit tenant at base's SLO, in one group whose engine counts on
// base.Registry. The implicit tenant takes every task, whatever its
// tenant tag, and NewServer renders a Single Multi in the single-tenant
// wire shapes.
func Single(base daemon.Config) (*Multi, error) {
	return build(Config{Base: base, Tenants: []Spec{{Name: "default", SLODelay: base.SLODelay}}}, true)
}

// build is New, or Single when implicit is set.
func build(cfg Config, implicit bool) (*Multi, error) {
	if err := ValidateSpecs(cfg.Tenants); err != nil {
		return nil, err
	}
	if err := validateTolerance(cfg.SLOTolerance); err != nil {
		return nil, err
	}
	if cfg.SLOTolerance == 0 {
		cfg.SLOTolerance = DefaultSLOTolerance
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}

	r := cfg.Registry
	tenantTasks := r.CounterVec("harmonyd_tenant_tasks_ingested_total", "Tasks ingested, by tenant.", "tenant")
	tenantInvalid := r.CounterVec("harmonyd_tenant_tasks_invalid_total", "Tasks rejected by validation, by tenant.", "tenant")
	tenantRejected := r.CounterVec("harmonyd_tenant_tasks_rejected_total", "Tasks rejected with 429 because the tenant's queue (or the global cap) was full.", "tenant")
	tenantCost := r.GaugeVec("harmonyd_tenant_cost_dollars", "Cumulative provisioning cost attributed to the tenant.", "tenant")
	groupCost := r.GaugeVec("harmonyd_group_cost_dollars", "Cumulative provisioning cost of the group (idle energy + switching).", "group")
	groupViol := r.CounterVec("harmonyd_group_slo_violations_total", "Control periods whose packing dropped containers (SLO at risk), by group.", "group")
	groupTicks := r.CounterVec("harmonyd_group_ticks_total", "Completed control-period ticks, by group.", "group")
	m := &Multi{
		cfg:           cfg,
		implicit:      implicit,
		byName:        make(map[string]*tenantState, len(cfg.Tenants)),
		mGroupActive:  r.GaugeVec("harmonyd_group_machines_active", "Machines the group's current plan keeps powered.", "group"),
		mGroupCont:    r.GaugeVec("harmonyd_group_containers_planned", "Container slots in the group's current plan.", "group"),
		mGroupDropped: r.GaugeVec("harmonyd_group_containers_dropped", "Containers the group's current packing could not place.", "group"),
	}
	for gi, members := range GroupSpecs(cfg.Tenants, cfg.SLOTolerance) {
		name := fmt.Sprintf("g%d", gi)
		reg := metrics.NewRegistry()
		if implicit && cfg.Base.Registry != nil {
			reg = cfg.Base.Registry
		}
		g := &Group{
			name:       name,
			slo:        members[0].SLODelay,
			reg:        reg,
			ticks:      groupTicks.With(name),
			violations: groupViol.With(name),
			cost:       groupCost.With(name),
			prevActive: make([]int, len(cfg.Base.Machines)),
		}
		engCfg := cfg.Base
		engCfg.Registry = g.reg
		engCfg.SLODelay = g.slo
		eng, err := daemon.NewEngine(engCfg)
		if err != nil {
			return nil, fmt.Errorf("tenant: group %s engine: %w", g.name, err)
		}
		g.eng = eng
		for _, s := range members {
			if s.Share == 0 {
				s.Share = 1
			}
			ts := &tenantState{
				spec:     s,
				group:    g,
				ingested: tenantTasks.With(s.Name),
				invalid:  tenantInvalid.With(s.Name),
				rejected: tenantRejected.With(s.Name),
				cost:     tenantCost.With(s.Name),
				byClass:  make([]uint64, len(cfg.Base.Char.Classes)+1),
			}
			g.members = append(g.members, ts)
			m.tenants = append(m.tenants, ts)
			m.byName[s.Name] = ts
		}
		m.groups = append(m.groups, g)
	}
	sortTenants(m.tenants)
	if len(m.tenants) == 1 {
		m.single = m.tenants[0]
	}
	return m, nil
}

func sortTenants(xs []*tenantState) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].spec.Name < xs[j-1].spec.Name; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Groups returns the provisioning groups in deterministic order.
func (m *Multi) Groups() []*Group { return m.groups }

// resolve maps a task's tenant tag to its state. An empty tag routes to
// the single tenant when exactly one is configured, and any tag to the
// implicit tenant of a Single Multi.
func (m *Multi) resolve(name string) (*tenantState, error) {
	if m.implicit {
		return m.single, nil
	}
	if name == "" {
		if m.single != nil {
			return m.single, nil
		}
		return nil, fmt.Errorf("%w: task carries no tenant tag and %d tenants are configured",
			ErrUnknownTenant, len(m.tenants))
	}
	ts, ok := m.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return ts, nil
}

// Ingest routes one task to its tenant's group engine and keeps the
// per-tenant accounting: ingest counts, per-class classification counts,
// and the arrival window used for cost attribution at the next tick.
func (m *Multi) Ingest(t trace.Task) error {
	ts, err := m.resolve(t.Tenant)
	if err != nil {
		return err
	}
	if err := ts.group.eng.Ingest(t); err != nil {
		ts.invalid.Inc()
		return err
	}
	cls := m.cfg.Base.Char.Label(t)
	if cls < 0 {
		cls = len(m.cfg.Base.Char.Classes) // the "unclassified" slot
	}
	ts.mu.Lock()
	ts.window++
	ts.byClass[cls]++
	ts.mu.Unlock()
	ts.ingested.Inc()
	return nil
}

// Tick runs one control period for every group concurrently and returns
// the fresh plans by group name. Groups are fully independent — each has
// its own engine, LP basis, and placement state — so concurrent group
// ticks are race-free and each group's output is bit-identical to ticking
// it alone. Per-group errors (including daemon.ErrTickInFlight) are
// joined; groups that succeeded still publish their plans.
func (m *Multi) Tick(ctx context.Context) (map[string]*daemon.Plan, error) {
	type result struct {
		plan *daemon.Plan
		err  error
	}
	results := make([]result, len(m.groups))
	var wg sync.WaitGroup
	for i, g := range m.groups {
		wg.Add(1)
		go func(i int, g *Group) {
			defer wg.Done()
			plan, err := g.eng.Tick(ctx)
			if err == nil {
				m.accountTick(g, plan)
			}
			results[i] = result{plan, err}
		}(i, g)
	}
	wg.Wait()

	plans := make(map[string]*daemon.Plan, len(m.groups))
	var errs []error
	for i, g := range m.groups {
		if err := results[i].err; err != nil {
			if !m.implicit {
				err = fmt.Errorf("group %s: %w", g.name, err)
			}
			errs = append(errs, err)
			continue
		}
		plans[g.name] = results[i].plan
	}
	return plans, errors.Join(errs...)
}

// accountTick books one completed group tick: provisioning cost (idle
// energy of powered machines plus switch transitions, at the period,
// price and switching costs the group's engine plans with), SLO-violation
// accounting (a period whose packing dropped containers under-provisioned
// some class), and the tenant cost attribution weighted by share × tasks
// ingested in the closed window.
func (m *Multi) accountTick(g *Group, plan *daemon.Plan) {
	loop := g.eng.PolicyConfig()
	hours := loop.PeriodSeconds / 3600
	price := loop.Price.At(plan.ModelTime)
	g.mu.Lock()
	cost := 0.0
	for i, mp := range plan.Machines {
		cost += float64(mp.Active) * (loop.Models[i].IdleWatts / 1000) * hours * price
		delta := mp.Active - g.prevActive[i]
		if delta < 0 {
			delta = -delta
		}
		cost += float64(delta) * loop.SwitchCost[i]
		g.prevActive[i] = mp.Active
	}
	g.cost.Set(g.cost.Value() + cost)
	g.mu.Unlock()
	g.ticks.Inc()
	if plan.Dropped > 0 {
		g.violations.Inc()
	}

	// Close the members' arrival windows and split the tick's cost by
	// share-weighted window size (by share alone in an idle period).
	weights := make([]float64, len(g.members))
	sum := 0.0
	for i, ts := range g.members {
		ts.mu.Lock()
		w := float64(ts.window)
		ts.window = 0
		ts.mu.Unlock()
		weights[i] = ts.spec.Share * w
		sum += weights[i]
	}
	if sum == 0 {
		for i, ts := range g.members {
			weights[i] = ts.spec.Share
			sum += weights[i]
		}
	}
	for i, ts := range g.members {
		if sum == 0 {
			break
		}
		ts.mu.Lock()
		ts.cost.Set(ts.cost.Value() + cost*weights[i]/sum)
		ts.mu.Unlock()
	}

	m.mGroupActive.With(g.name).Set(float64(plan.TotalActive))
	m.mGroupCont.With(g.name).Set(float64(plan.TotalContainers))
	m.mGroupDropped.With(g.name).Set(float64(plan.Dropped))
}

// Plans returns the most recent plan of every group that has one, late
// ones included: each group's engine publishes a plan whose solve outlived
// its tick's deadline.
func (m *Multi) Plans() (map[string]*daemon.Plan, error) {
	out := make(map[string]*daemon.Plan, len(m.groups))
	for _, g := range m.groups {
		if plan, err := g.eng.Plan(); err == nil {
			out[g.name] = plan
		}
	}
	if len(out) == 0 {
		return nil, ErrNoPlans
	}
	return out, nil
}

// TenantStats is the per-tenant observability snapshot.
type TenantStats struct {
	Name             string            `json:"name"`
	Group            string            `json:"group"`
	SLODelay         float64           `json:"sloDelay,omitempty"`
	Share            float64           `json:"share"`
	TasksIngested    uint64            `json:"tasksIngested"`
	TasksInvalid     uint64            `json:"tasksInvalid,omitempty"`
	TasksRejected    uint64            `json:"tasksRejected,omitempty"`
	TasksByClass     map[string]uint64 `json:"tasksByClass,omitempty"`
	CostDollars      float64           `json:"costDollars"`
	SLOViolations    uint64            `json:"sloViolations"`
	SLOViolationRate float64           `json:"sloViolationRate"`
}

// GroupStats is the per-group observability snapshot; Engine embeds the
// group pipeline's full daemon.Stats (including the delta-placement
// counters).
type GroupStats struct {
	Name             string       `json:"name"`
	SLODelay         float64      `json:"sloDelay,omitempty"`
	Tenants          []string     `json:"tenants"`
	CostDollars      float64      `json:"costDollars"`
	SLOViolations    uint64       `json:"sloViolations"`
	SLOViolationRate float64      `json:"sloViolationRate"`
	Engine           daemon.Stats `json:"engine"`
}

// MultiStats is the /v1/stats payload of the multi-tenant daemon.
type MultiStats struct {
	Tenants []TenantStats `json:"tenants"`
	Groups  []GroupStats  `json:"groups"`
}

// Snapshot returns a deterministic copy of the multi-tenant statistics.
func (m *Multi) Snapshot() MultiStats {
	var out MultiStats
	groupRate := make(map[*Group][2]float64, len(m.groups))
	for _, g := range m.groups {
		// Violations before ticks: a tick is counted before its violation,
		// so the rate read cannot exceed 1.
		violations := uint64(g.violations.Value())
		ticks := uint64(g.ticks.Value())
		rate := 0.0
		if ticks > 0 {
			rate = float64(violations) / float64(ticks)
		}
		groupRate[g] = [2]float64{float64(violations), rate}
		names := make([]string, len(g.members))
		for i, ts := range g.members {
			names[i] = ts.spec.Name
		}
		out.Groups = append(out.Groups, GroupStats{
			Name:             g.name,
			SLODelay:         g.slo,
			Tenants:          names,
			CostDollars:      g.cost.Value(),
			SLOViolations:    violations,
			SLOViolationRate: rate,
			Engine:           g.eng.Snapshot(),
		})
	}
	for _, ts := range m.tenants {
		ts.mu.Lock()
		counts := append([]uint64(nil), ts.byClass...)
		ts.mu.Unlock()
		st := TenantStats{
			Name:          ts.spec.Name,
			Group:         ts.group.name,
			SLODelay:      ts.spec.SLODelay,
			Share:         ts.spec.Share,
			TasksIngested: uint64(ts.ingested.Value()),
			TasksInvalid:  uint64(ts.invalid.Value()),
			TasksRejected: uint64(ts.rejected.Value()),
			TasksByClass:  make(map[string]uint64),
			CostDollars:   ts.cost.Value(),
		}
		for c, n := range counts {
			if n == 0 {
				continue
			}
			key := "unclassified"
			if c < len(counts)-1 {
				key = fmt.Sprintf("class%d", c)
			}
			st.TasksByClass[key] = n
		}
		gv := groupRate[ts.group]
		st.SLOViolations = uint64(gv[0])
		st.SLOViolationRate = gv[1]
		out.Tenants = append(out.Tenants, st)
	}
	return out
}

// Replay is the batch reference for the multi-tenant daemon: a fresh Multi
// is driven over the prefix of a (tenant-tagged) task stream covered by
// the given number of control periods — ingesting in submit order and
// ticking every group at each boundary — and the final plans are
// returned. A stream POSTed through the HTTP path with a tick per
// boundary must produce bit-identical plans per group.
func Replay(cfg Config, tasks []trace.Task, ticks int) (map[string]*daemon.Plan, error) {
	if ticks <= 0 {
		return nil, errors.New("tenant: replay needs at least one tick")
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	period := m.groups[0].eng.PolicyConfig().PeriodSeconds
	i := 0
	for k := 1; k <= ticks; k++ {
		boundary := float64(k) * period
		for i < len(tasks) && tasks[i].Submit < boundary {
			if err := m.Ingest(tasks[i]); err != nil {
				return nil, err
			}
			i++
		}
		if _, err := m.Tick(context.Background()); err != nil {
			return nil, fmt.Errorf("tenant: replay tick %d: %w", k, err)
		}
	}
	return m.Plans()
}
