package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"harmony/internal/daemon"
	"harmony/internal/energy"
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
	// group's own registry (Group.Registry), not here.
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
	slo     float64 // smallest member SLO; 0 = engine defaults
	eng     *daemon.Engine
	reg     *metrics.Registry
	members []*tenantState

	// Cost model inputs, mirrored from the effective engine config.
	idleKW     []float64 // per machine type
	switchCost []float64 // dollars per on/off transition, per type
	periodH    float64   // model hours per period

	// mu guards the fields below.
	mu         sync.Mutex
	prevActive []int
	ticks      uint64
	violations uint64
	cost       float64 // dollars
	lastPlan   *daemon.Plan
}

// Name returns the group's deterministic identifier ("g0", "g1", ...).
func (g *Group) Name() string { return g.name }

// SLO returns the group's provisioning SLO (seconds of target mean
// scheduling delay for production work; 0 means the daemon defaults).
func (g *Group) SLO() float64 { return g.slo }

// Engine returns the group's control-loop engine.
func (g *Group) Engine() *daemon.Engine { return g.eng }

// Registry returns the group engine's private metrics registry.
func (g *Group) Registry() *metrics.Registry { return g.reg }

// tenantState is the per-tenant accounting the multi layer owns.
type tenantState struct {
	spec  Spec
	group *Group

	// mu guards the fields below.
	mu       sync.Mutex
	ingested uint64
	invalid  uint64
	rejected uint64 // queue-full rejections, recorded by the server
	// byClass[c] counts tasks labeled class c; the last slot counts tasks
	// whose priority group has no class.
	byClass []uint64
	window  uint64  // tasks since the group's last tick (cost attribution)
	cost    float64 // dollars
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

	mTenantTasks    *metrics.CounterVec
	mTenantInvalid  *metrics.CounterVec
	mTenantRejected *metrics.CounterVec
	mTenantCost     *metrics.GaugeVec
	mGroupCost      *metrics.GaugeVec
	mGroupViol      *metrics.CounterVec
	mGroupTicks     *metrics.CounterVec
	mGroupActive    *metrics.GaugeVec
	mGroupCont      *metrics.GaugeVec
	mGroupDropped   *metrics.GaugeVec
	mGroupDeltaRe   *metrics.GaugeVec
	mGroupDeltaRp   *metrics.GaugeVec
	mGroupDeltaFu   *metrics.GaugeVec
}

// New validates the configuration, groups the tenants, and builds one
// engine per group.
func New(cfg Config) (*Multi, error) {
	if err := ValidateSpecs(cfg.Tenants); err != nil {
		return nil, err
	}
	if cfg.SLOTolerance == 0 {
		cfg.SLOTolerance = DefaultSLOTolerance
	}
	if cfg.SLOTolerance < 1 {
		return nil, fmt.Errorf("tenant: SLO tolerance %v < 1", cfg.SLOTolerance)
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}

	m := &Multi{cfg: cfg, byName: make(map[string]*tenantState, len(cfg.Tenants))}
	for gi, members := range GroupSpecs(cfg.Tenants, cfg.SLOTolerance) {
		g := &Group{
			name:       fmt.Sprintf("g%d", gi),
			slo:        members[0].SLODelay,
			reg:        metrics.NewRegistry(),
			prevActive: make([]int, len(cfg.Base.Machines)),
		}
		engCfg := cfg.Base
		engCfg.Registry = g.reg
		engCfg.SLODelay = groupSLODelay(g.slo)
		eng, err := daemon.NewEngine(engCfg)
		if err != nil {
			return nil, fmt.Errorf("tenant: group %s engine: %w", g.name, err)
		}
		g.eng = eng
		// The cost model prices what the engine provisions: the engine's
		// resolved period, at the price and switching cost the engine
		// itself takes from energy.
		g.periodH = eng.PeriodSeconds() / 3600
		g.idleKW = make([]float64, len(cfg.Base.Models))
		g.switchCost = energy.SwitchCosts(cfg.Base.Models, energy.DefaultSwitchCostDollars)
		for i, mdl := range cfg.Base.Models {
			g.idleKW[i] = mdl.IdleWatts / 1000
		}
		for _, s := range members {
			if s.Share == 0 {
				s.Share = 1
			}
			ts := &tenantState{
				spec:    s,
				group:   g,
				byClass: make([]uint64, len(cfg.Base.Char.Classes)+1),
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

	r := cfg.Registry
	m.mTenantTasks = r.CounterVec("harmonyd_tenant_tasks_ingested_total", "Tasks ingested, by tenant.", "tenant")
	m.mTenantInvalid = r.CounterVec("harmonyd_tenant_tasks_invalid_total", "Tasks rejected by validation, by tenant.", "tenant")
	m.mTenantRejected = r.CounterVec("harmonyd_tenant_tasks_rejected_total", "Tasks rejected with 429 because the tenant's queue (or the global cap) was full.", "tenant")
	m.mTenantCost = r.GaugeVec("harmonyd_tenant_cost_dollars", "Cumulative provisioning cost attributed to the tenant.", "tenant")
	m.mGroupCost = r.GaugeVec("harmonyd_group_cost_dollars", "Cumulative provisioning cost of the group (idle energy + switching).", "group")
	m.mGroupViol = r.CounterVec("harmonyd_group_slo_violations_total", "Control periods whose packing dropped containers (SLO at risk), by group.", "group")
	m.mGroupTicks = r.CounterVec("harmonyd_group_ticks_total", "Completed control-period ticks, by group.", "group")
	m.mGroupActive = r.GaugeVec("harmonyd_group_machines_active", "Machines the group's current plan keeps powered.", "group")
	m.mGroupCont = r.GaugeVec("harmonyd_group_containers_planned", "Container slots in the group's current plan.", "group")
	m.mGroupDropped = r.GaugeVec("harmonyd_group_containers_dropped", "Containers the group's current packing could not place.", "group")
	m.mGroupDeltaRe = r.GaugeVec("harmonyd_group_delta_reused_types", "Machine types whose packings the group's delta placement reused (cumulative).", "group")
	m.mGroupDeltaRp = r.GaugeVec("harmonyd_group_delta_repacked_types", "Machine types the group's delta placement repacked (cumulative).", "group")
	m.mGroupDeltaFu = r.GaugeVec("harmonyd_group_delta_full_repacks", "Group realizations that fell back to a full repack (cumulative).", "group")
	return m, nil
}

// groupSLODelay maps a group SLO to the per-priority-group delay targets,
// preserving the daemon's default 120/300/900 ratios. A zero SLO keeps the
// engine defaults — the N=1 equivalence contract depends on this.
func groupSLODelay(slo float64) map[trace.PriorityGroup]float64 {
	if slo <= 0 {
		return nil
	}
	return map[trace.PriorityGroup]float64{
		trace.Production: slo,
		trace.Other:      slo * 2.5,
		trace.Gratis:     slo * 7.5,
	}
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
// the single tenant when exactly one is configured.
func (m *Multi) resolve(name string) (*tenantState, error) {
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
		m.recordInvalid(ts)
		return err
	}
	cls := m.cfg.Base.Char.Label(t)
	if cls < 0 {
		cls = len(m.cfg.Base.Char.Classes) // the "unclassified" slot
	}
	ts.mu.Lock()
	ts.ingested++
	ts.window++
	ts.byClass[cls]++
	ts.mu.Unlock()
	m.mTenantTasks.With(ts.spec.Name).Inc()
	return nil
}

// recordInvalid charges a task that failed validation to a tenant.
func (m *Multi) recordInvalid(ts *tenantState) {
	ts.mu.Lock()
	ts.invalid++
	ts.mu.Unlock()
	m.mTenantInvalid.With(ts.spec.Name).Inc()
}

// recordRejected charges queue-full rejections to a tenant (server path).
func (m *Multi) recordRejected(ts *tenantState, n int) {
	ts.mu.Lock()
	ts.rejected += uint64(n)
	ts.mu.Unlock()
	m.mTenantRejected.With(ts.spec.Name).Add(float64(n))
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
		if results[i].err != nil {
			errs = append(errs, fmt.Errorf("group %s: %w", g.name, results[i].err))
			continue
		}
		plans[g.name] = results[i].plan
	}
	return plans, errors.Join(errs...)
}

// accountTick books one completed group tick: provisioning cost (idle
// energy of powered machines plus switch transitions), SLO-violation
// accounting (a period whose packing dropped containers under-provisioned
// some class), and the tenant cost attribution weighted by share × tasks
// ingested in the closed window.
func (m *Multi) accountTick(g *Group, plan *daemon.Plan) {
	g.mu.Lock()
	cost := 0.0
	for i, mp := range plan.Machines {
		cost += float64(mp.Active) * g.idleKW[i] * g.periodH * energy.DefaultPricePerKWh
		delta := mp.Active - g.prevActive[i]
		if delta < 0 {
			delta = -delta
		}
		cost += float64(delta) * g.switchCost[i]
		g.prevActive[i] = mp.Active
	}
	g.ticks++
	g.cost += cost
	violated := plan.Dropped > 0
	if violated {
		g.violations++
	}
	g.lastPlan = plan
	totalCost := g.cost
	g.mu.Unlock()

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
		ts.cost += cost * weights[i] / sum
		tCost := ts.cost
		ts.mu.Unlock()
		m.mTenantCost.With(ts.spec.Name).Set(tCost)
	}

	snap := g.eng.Snapshot()
	m.mGroupTicks.With(g.name).Inc()
	m.mGroupCost.With(g.name).Set(totalCost)
	if violated {
		m.mGroupViol.With(g.name).Inc()
	}
	m.mGroupActive.With(g.name).Set(float64(plan.TotalActive))
	m.mGroupCont.With(g.name).Set(float64(plan.TotalContainers))
	m.mGroupDropped.With(g.name).Set(float64(plan.Dropped))
	m.mGroupDeltaRe.With(g.name).Set(float64(snap.DeltaReusedTypes))
	m.mGroupDeltaRp.With(g.name).Set(float64(snap.DeltaRepackedTypes))
	m.mGroupDeltaFu.With(g.name).Set(float64(snap.DeltaFullRepacks))
}

// Plans returns the most recent plan of every group that has one.
func (m *Multi) Plans() (map[string]*daemon.Plan, error) {
	out := make(map[string]*daemon.Plan, len(m.groups))
	for _, g := range m.groups {
		g.mu.Lock()
		if g.lastPlan != nil {
			out[g.name] = g.lastPlan
		}
		g.mu.Unlock()
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
		g.mu.Lock()
		ticks, violations, cost := g.ticks, g.violations, g.cost
		g.mu.Unlock()
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
			CostDollars:      cost,
			SLOViolations:    violations,
			SLOViolationRate: rate,
			Engine:           g.eng.Snapshot(),
		})
	}
	for _, ts := range m.tenants {
		ts.mu.Lock()
		counts := append([]uint64(nil), ts.byClass...)
		st := TenantStats{
			Name:          ts.spec.Name,
			Group:         ts.group.name,
			SLODelay:      ts.spec.SLODelay,
			Share:         ts.spec.Share,
			TasksIngested: ts.ingested,
			TasksInvalid:  ts.invalid,
			TasksRejected: ts.rejected,
			TasksByClass:  make(map[string]uint64),
			CostDollars:   ts.cost,
		}
		ts.mu.Unlock()
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
	period := m.groups[0].eng.PeriodSeconds()
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
