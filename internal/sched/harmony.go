package sched

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/classify"
	"harmony/internal/container"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/forecast"
	"harmony/internal/queueing"
	"harmony/internal/sim"
	"harmony/internal/stats"
	"harmony/internal/trace"
	"sort"
)

// HarmonyConfig wires the full HARMONY pipeline into a sim.Policy.
type HarmonyConfig struct {
	Mode core.Mode // CBS or CBP (0 means CBS)

	Machines []trace.MachineType
	Models   []energy.Model
	Types    []classify.TaskType // flattened task types (class × sub-class)
	Price    energy.Price

	PeriodSeconds float64
	Horizon       int // MPC look-ahead W (0 means 2)

	// SLODelay is the production group's target mean scheduling delay in
	// seconds (0 means 120); the other groups' targets scale it by
	// sloRatio.
	SLODelay float64
	// Epsilon is the machine-overflow bound for container sizing, in
	// (0,1) (0 means the default 0.25; the paper handles residual
	// violations by reserving extra machines, §VII-A — tighter bounds
	// inflate reservations).
	Epsilon float64
	// Omega is the over-provisioning factor applied to every container
	// type to compensate bin-packing inefficiency, finite and at least 1
	// (Eq. 17; 0 means the default 1.05).
	Omega float64
	// SwitchCost[m] is the dollar cost of one machine on/off transition;
	// nil switches for free, any other length than Machines' is an error.
	SwitchCost []float64
	// Predictor selects the forecasting model once minHistory periods
	// have accumulated (before that an EWMA bootstrap is used).
	Predictor PredictorKind
}

// minHistory is how many periods of arrival history must accumulate
// before the configured predictor replaces the EWMA bootstrap.
const minHistory = 24

// sloRatio[g] scales the production SLO to group g's delay target: the
// default targets are 120 s, 300 s and 900 s.
var sloRatio = map[trace.PriorityGroup]float64{
	trace.Production: 1,
	trace.Other:      2.5,
	trace.Gratis:     7.5,
}

// valuePerPeriod[g] is the utility earned per scheduled container per
// period, ordered by priority (the f_n weights of Eq. 3).
var valuePerPeriod = map[trace.PriorityGroup]float64{
	trace.Production: 1.0,
	trace.Other:      0.1,
	trace.Gratis:     0.01,
}

// PredictorKind selects the arrival-rate forecaster.
type PredictorKind int

// Forecaster choices for HarmonyConfig.Predictor.
const (
	// PredictARIMA fits a fixed-order ARIMA(2,0,1) (default).
	PredictARIMA PredictorKind = iota
	// PredictAutoARIMA selects ARIMA orders by AIC each refit.
	PredictAutoARIMA
	// PredictSeasonal uses a daily seasonal-naive forecaster, falling
	// back to EWMA until a full day of history exists.
	PredictSeasonal
	// PredictEWMA uses exponential smoothing only.
	PredictEWMA
	// PredictHoltWinters uses additive triple exponential smoothing with
	// a daily season, falling back to EWMA until two full days of history
	// exist.
	PredictHoltWinters
)

// ParsePredictor resolves a forecaster name as the facade, harmony-sim and
// harmonyd spell it: "arima" (also ""), "auto-arima" (also "auto"),
// "seasonal", "ewma" or "holtwinters".
func ParsePredictor(name string) (PredictorKind, error) {
	switch name {
	case "", "arima":
		return PredictARIMA, nil
	case "auto-arima", "auto":
		return PredictAutoARIMA, nil
	case "seasonal":
		return PredictSeasonal, nil
	case "ewma":
		return PredictEWMA, nil
	case "holtwinters":
		return PredictHoltWinters, nil
	}
	return 0, fmt.Errorf("forecaster %q is not one of arima, auto-arima, seasonal, ewma, holtwinters", name)
}

// Harmony is the paper's full pipeline as a simulation policy: it observes
// per-type arrivals, forecasts rates, converts them to container demands
// via the M/G/c model, and runs the CBS/CBP controller every period.
type Harmony struct {
	cfg        HarmonyConfig
	ctrl       *core.Controller
	history    [][]float64 // arrival rate (tasks/s) per type per elapsed period
	contSeries map[trace.PriorityGroup]*stats.TimeBinner
	lastErr    error
	lastDemand [][]float64
	lastDec    *core.Decision
	// pressure[n] counts consecutive periods in which type n had queued
	// tasks but received no allocation; it escalates the type's utility
	// so capacity triage cannot starve a class forever (f_n is a delay
	// cost, and delay cost grows as tasks keep waiting).
	pressure  []float64
	baseValue []float64
	// shortSibling[n] is the index of the short sub-type of n's class
	// (n itself when n is short); longFrac[n] is the long fraction of
	// the class population. Arrival rates are always measured on the
	// short type (everything is labeled short first), so demand
	// attribution needs both.
	shortSibling []int
	longFrac     []float64
	// solveHint[n] warm-starts the M/G/c container solver with the
	// previous period's answer for type n; successive control periods
	// see near-identical loads, so the hint usually lands within a
	// probe or two of the new answer.
	solveHint []int
	// lastRates[n] is the most recent one-period-ahead arrival-rate
	// forecast (tasks/s) for type n's class, recorded on short
	// sub-types (where all arrivals land); long sub-types keep 0.
	lastRates []float64
	// forecasts counts forecastRates calls over the policy's life; the
	// tick makes one per distinct class, whatever its sub-type count.
	forecasts int
	// predictors[s] is the forecaster of the class whose short sub-type
	// is s (nil on long sub-types), built once: a model that can carry
	// work from one period's fit to the next does.
	predictors []forecast.Predictor
	// Per-period scratch, allocated once in NewHarmony and overwritten
	// every tick so the steady-state control path does not churn the
	// allocator. Handing these buffers out in the Directive is safe
	// because both consumers finish with one period's directive before
	// the next Period call: the sim engine re-applies the directive at
	// every period boundary, and the daemon runs at most one solve at a
	// time and copies what it keeps.
	demandBuf [][]float64
	// ratesBuf[s] holds this tick's forecast for the class whose short
	// sub-type is s; only rows with shortSibling[s] == s are ever filled.
	// Both sub-types of a class size their demand from the same row, so
	// the class's history is fitted once per tick, not once per sub-type.
	ratesBuf   [][]float64
	priceBuf   []float64
	initialBuf []float64
	quotaBuf   [][]int
	// reserveCPU[n] and reserveMem[n] are type n's container reservation
	// (Eq. 3), sized once in NewHarmony.
	reserveCPU []float64
	reserveMem []float64
}

// NewLoop assembles Algorithm 1's controller from a characterization:
// the policy, over the characterization's task types with energy's
// per-type switch costs (cfg.Types and cfg.SwitchCost are replaced), and
// the labeler that types its tasks short-first. The facade and harmonyd
// both build their loop here.
func NewLoop(ch *classify.Characterization, cfg HarmonyConfig) (*Harmony, *classify.Labeler, error) {
	if ch == nil {
		return nil, nil, errors.New("sched: characterization required")
	}
	cfg.Types = ch.TaskTypes()
	cfg.SwitchCost = energy.SwitchCosts(cfg.Models, energy.DefaultSwitchCostDollars)
	h, err := NewHarmony(cfg)
	if err != nil {
		return nil, nil, err
	}
	return h, classify.NewLabeler(ch), nil
}

// NewHarmony validates the configuration and builds the policy. A zero
// Mode, Horizon, Epsilon, Omega, Price or SLODelay takes its default and
// a nil SwitchCost switches for free; a negative value, or any Mode but
// CBS and CBP, is an error.
func NewHarmony(cfg HarmonyConfig) (*Harmony, error) {
	if len(cfg.Machines) == 0 || len(cfg.Models) != len(cfg.Machines) {
		return nil, errors.New("sched: machines/models mismatch")
	}
	if len(cfg.Types) == 0 {
		return nil, errors.New("sched: no task types")
	}
	switch {
	case cfg.SwitchCost == nil:
		cfg.SwitchCost = make([]float64, len(cfg.Machines))
	case len(cfg.SwitchCost) != len(cfg.Machines):
		return nil, fmt.Errorf("sched: %d SwitchCost entries for %d machine types", len(cfg.SwitchCost), len(cfg.Machines))
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.CBS
	}
	if cfg.Mode != core.CBS && cfg.Mode != core.CBP {
		return nil, fmt.Errorf("sched: Mode %d is neither CBS nor CBP", int(cfg.Mode))
	}
	// The seasonal forecasters' season is a day of periods, and no
	// provisioning decision waits longer than that.
	if !(cfg.PeriodSeconds > 0) || cfg.PeriodSeconds > trace.Day {
		return nil, fmt.Errorf("sched: period must be positive and finite, at most a day, got %v", cfg.PeriodSeconds)
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("sched: Horizon %d is negative", cfg.Horizon)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 2
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.25 // any other value is PerResourceBound's to judge, below
	}
	if cfg.Omega == 0 {
		cfg.Omega = 1.05
	}
	if !(cfg.Omega >= 1) || math.IsInf(cfg.Omega, 1) {
		return nil, fmt.Errorf("sched: Omega %v not in [1,+Inf)", cfg.Omega)
	}
	if cfg.Price == nil {
		cfg.Price = energy.FlatPrice(energy.DefaultPricePerKWh)
	}
	if cfg.SLODelay == 0 {
		cfg.SLODelay = 120
	}
	if !(cfg.SLODelay > 0) || math.IsInf(cfg.SLODelay, 1) {
		return nil, fmt.Errorf("sched: SLODelay %v not in (0,+Inf)", cfg.SLODelay)
	}

	h := &Harmony{
		cfg:        cfg,
		history:    make([][]float64, len(cfg.Types)),
		contSeries: map[trace.PriorityGroup]*stats.TimeBinner{},
	}
	for _, g := range trace.Groups() {
		b, err := stats.NewTimeBinner(cfg.PeriodSeconds)
		if err != nil {
			return nil, err
		}
		h.contSeries[g] = b
	}

	// Container sizing per task type (Eq. 3).
	cpuCaps := capacityCatalog(cfg.Machines, func(m trace.MachineType) float64 { return m.CPU })
	memCaps := capacityCatalog(cfg.Machines, func(m trace.MachineType) float64 { return m.Mem })
	containers := make([]core.ContainerSpec, len(cfg.Types))
	h.reserveCPU = make([]float64, len(cfg.Types))
	h.reserveMem = make([]float64, len(cfg.Types))
	epsR, err := container.PerResourceBound(cfg.Epsilon, 2)
	if err != nil {
		return nil, fmt.Errorf("sched: Epsilon: %w", err)
	}
	qi := quantileIndex(1 - epsR)
	for i, tt := range cfg.Types {
		s, err := container.ForClass(tt.CPU, tt.CPUStd, tt.Mem, tt.MemStd, cfg.Epsilon)
		if err != nil {
			return nil, fmt.Errorf("sched: sizing type %d: %w", i, err)
		}
		// The Gaussian size overshoots badly on skewed classes; the
		// empirical class quantile gives the same per-task coverage
		// directly, so take the smaller of the two (floored at the
		// class mean so the container still fits a typical task).
		if q := tt.CPUQuantiles[qi]; q > 0 && q < s.CPU {
			s.CPU = math.Max(q, tt.CPU)
		}
		if q := tt.MemQuantiles[qi]; q > 0 && q < s.Mem {
			s.Mem = math.Max(q, tt.Mem)
		}
		// Align reservations with the machine catalog: a reservation
		// that barely exceeds a machine-size boundary (after ω) would
		// exile the whole class to the few next-larger machines, so it
		// is snapped down to the boundary at slightly increased
		// overflow risk. Oversized reservations shrink to the largest
		// machine, or the class could never be placed at all.
		s.CPU = snapToCatalog(s.CPU, cpuCaps, cfg.Omega, catalogSnapTolerance)
		s.Mem = snapToCatalog(s.Mem, memCaps, cfg.Omega, catalogSnapTolerance)
		if lim := cpuCaps[0] / cfg.Omega; s.CPU > lim {
			s.CPU = lim
		}
		if lim := memCaps[0] / cfg.Omega; s.Mem > lim {
			s.Mem = lim
		}
		h.reserveCPU[i], h.reserveMem[i] = s.CPU, s.Mem
		// A container's utility per period scales with the work it
		// delivers: the tasks it serves per period (a slot for
		// 20-second tasks turns over ~15 tasks per 5-minute period)
		// times the resources each occupies. Without the turnover term
		// the LP starves short-task classes; without the size term the
		// value-per-resource auction starves large-container classes
		// regardless of priority.
		turnover := cfg.PeriodSeconds / tt.MeanDuration
		if turnover < 1 {
			turnover = 1
		}
		const refSize = 0.05 // container size earning exactly the group value
		sizeFactor := (s.CPU + s.Mem) / (2 * refSize)
		containers[i] = core.ContainerSpec{
			Type:  i,
			CPU:   s.CPU,
			Mem:   s.Mem,
			Value: valuePerPeriod[tt.Group] * turnover * sizeFactor,
			Omega: cfg.Omega,
		}
	}

	machines := make([]core.MachineSpec, len(cfg.Machines))
	for i, mt := range cfg.Machines {
		machines[i] = core.MachineSpec{
			Type:       mt.ID,
			CPU:        mt.CPU,
			Mem:        mt.Mem,
			Available:  mt.Count,
			IdleWatts:  cfg.Models[i].IdleWatts,
			AlphaCPU:   cfg.Models[i].AlphaCPU,
			AlphaMem:   cfg.Models[i].AlphaMem,
			SwitchCost: cfg.SwitchCost[i],
		}
	}
	h.ctrl = &core.Controller{
		Machines:      machines,
		Containers:    containers,
		PeriodSeconds: cfg.PeriodSeconds,
		Horizon:       cfg.Horizon,
		Mode:          cfg.Mode,
	}
	h.pressure = make([]float64, len(containers))
	h.baseValue = make([]float64, len(containers))
	h.solveHint = make([]int, len(cfg.Types))
	h.lastRates = make([]float64, len(cfg.Types))
	for i, c := range containers {
		h.baseValue[i] = c.Value
	}

	// Sibling bookkeeping for demand attribution.
	shortOfClass := make(map[int]int)
	classCount := make(map[int]int)
	for i, tt := range cfg.Types {
		classCount[tt.ID.Class] += tt.Count
		if tt.ID.Sub == 0 {
			shortOfClass[tt.ID.Class] = i
		}
	}
	h.shortSibling = make([]int, len(cfg.Types))
	h.longFrac = make([]float64, len(cfg.Types))
	for i, tt := range cfg.Types {
		if si, ok := shortOfClass[tt.ID.Class]; ok {
			h.shortSibling[i] = si
		} else {
			h.shortSibling[i] = i
		}
		long := 0
		for j, o := range cfg.Types {
			if o.ID.Class == tt.ID.Class && o.ID.Sub > 0 {
				long += cfg.Types[j].Count
			}
		}
		if total := classCount[tt.ID.Class]; total > 0 {
			h.longFrac[i] = float64(long) / float64(total)
		}
	}

	h.predictors = make([]forecast.Predictor, len(cfg.Types))
	for i, si := range h.shortSibling {
		if si == i {
			h.predictors[i] = newPredictor(cfg.Predictor, cfg.PeriodSeconds)
		}
	}

	// Tick-path scratch (one backing array per matrix keeps rows hot).
	nt, nm, w := len(cfg.Types), len(cfg.Machines), cfg.Horizon
	h.demandBuf = make([][]float64, nt)
	demandRows := make([]float64, nt*w)
	for i := range h.demandBuf {
		h.demandBuf[i] = demandRows[i*w : (i+1)*w : (i+1)*w]
	}
	h.quotaBuf = make([][]int, nm)
	quotaRows := make([]int, nm*nt)
	for m := range h.quotaBuf {
		h.quotaBuf[m] = quotaRows[m*nt : (m+1)*nt : (m+1)*nt]
	}
	h.ratesBuf = make([][]float64, nt)
	rateRows := make([]float64, nt*w)
	for i := range h.ratesBuf {
		h.ratesBuf[i] = rateRows[i*w : (i+1)*w : (i+1)*w]
	}
	h.priceBuf = make([]float64, w)
	h.initialBuf = make([]float64, nm)
	return h, nil
}

// quantileIndex returns the index into classify.QuantileProbs of the
// smallest recorded probability covering the target, or the last index.
func quantileIndex(target float64) int {
	for i, p := range classify.QuantileProbs {
		if p >= target {
			return i
		}
	}
	return len(classify.QuantileProbs) - 1
}

// catalogSnapTolerance is how far (multiplicatively) a reservation may
// exceed a machine-size boundary and still be snapped down to it.
const catalogSnapTolerance = 1.4

// maxPressure caps the starvation escalation multiplier.
const maxPressure = 512

// quotaSlack relaxes emitted per-type quotas above the plan so the
// scheduler can absorb within-period arrival surprises (Algorithm 1's
// "free to schedule additional containers").
const quotaSlack = 1.5

// capacityCatalog returns the distinct per-resource machine capacities in
// descending order.
func capacityCatalog(machines []trace.MachineType, get func(trace.MachineType) float64) []float64 {
	seen := make(map[float64]bool, len(machines))
	var caps []float64
	for _, m := range machines {
		v := get(m)
		if !seen[v] {
			seen[v] = true
			caps = append(caps, v)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(caps)))
	return caps
}

// snapToCatalog shrinks a reservation whose ω-inflated size barely exceeds
// a machine-capacity boundary down to that boundary, so the container can
// be hosted by the (usually much larger) population of smaller machines.
func snapToCatalog(c float64, caps []float64, omega, tolerance float64) float64 {
	eff := omega * c
	for _, cap := range caps {
		if eff > cap && eff <= cap*tolerance {
			return cap / omega
		}
	}
	return c
}

// Config returns the configuration the policy runs at, every default
// resolved. Its slices are the policy's own: read them, do not write.
func (h *Harmony) Config() HarmonyConfig { return h.cfg }

// Name implements sim.Policy.
func (h *Harmony) Name() string { return "harmony-" + h.cfg.Mode.String() }

// Err returns the last internal error encountered during a period (the
// policy degrades to keeping its previous decision rather than crashing
// the simulation).
func (h *Harmony) Err() error { return h.lastErr }

// ContainerSeries returns the total containers provisioned per priority
// group over time (Figure 20).
func (h *Harmony) ContainerSeries() map[trace.PriorityGroup]stats.Series {
	out := make(map[trace.PriorityGroup]stats.Series, trace.NumGroups)
	for g, b := range h.contSeries {
		out[g] = b.Series("containers " + g.String())
	}
	return out
}

// LastDecision returns the most recent controller decision.
func (h *Harmony) LastDecision() *core.Decision { return h.lastDec }

// DeltaStats returns the controller's cumulative delta-placement counters
// (reused vs repacked machine types, full-repack fallbacks) so the reuse
// behavior is observable outside benches. Call it only between Period
// calls — it reads the controller the in-flight tick owns.
func (h *Harmony) DeltaStats() core.DeltaStats { return h.ctrl.DeltaStats() }

// LastForecast returns the most recent one-period-ahead arrival-rate
// forecast per task type (tasks/s). Rates are recorded on each class's
// short sub-type — where the label-short-first policy lands every
// arrival — and are 0 for long sub-types. The returned slice is a copy.
func (h *Harmony) LastForecast() []float64 {
	return append([]float64(nil), h.lastRates...)
}

// Period implements sim.Policy: record arrivals, forecast, size container
// demand, and run one MPC step.
func (h *Harmony) Period(obs *sim.Observation) sim.Directive {
	// Record this period's arrival rates.
	for n := range h.cfg.Types {
		rate := 0.0
		if n < len(obs.Arrivals) {
			rate = float64(obs.Arrivals[n]) / h.cfg.PeriodSeconds
		}
		h.history[n] = append(h.history[n], rate)
	}

	demand, err := h.containerDemand(obs)
	if err != nil {
		h.lastErr = err
		return sim.Directive{} // keep current machine state
	}
	price := h.priceBuf
	for t := 0; t < h.cfg.Horizon; t++ {
		price[t] = h.cfg.Price.At(obs.Time + float64(t)*h.cfg.PeriodSeconds)
	}
	initial := h.initialBuf[:0]
	for _, a := range obs.Active {
		initial = append(initial, float64(a))
	}
	h.initialBuf = initial
	// Escalate the utility of types whose queues were starved by
	// earlier triage: each starved period doubles the pressure term.
	for n := range h.ctrl.Containers {
		h.ctrl.Containers[n].Value = h.baseValue[n] * (1 + h.pressure[n])
	}
	dec, err := h.ctrl.Step(initial, demand, price)
	if err != nil {
		h.lastErr = err
		return sim.Directive{}
	}
	h.lastDemand = demand
	h.lastDec = dec
	for n := range h.ctrl.Containers {
		alloc := 0
		for m := range h.cfg.Machines {
			alloc += dec.Quota[m][n]
		}
		if n < len(obs.Queued) && obs.Queued[n] > 0 && alloc == 0 {
			if h.pressure[n] == 0 {
				h.pressure[n] = 1
			} else {
				h.pressure[n] *= 2
			}
			if h.pressure[n] > maxPressure {
				h.pressure[n] = maxPressure
			}
		} else {
			// Decay rather than reset: a single winning period should
			// not send a contested class back to the end of the line.
			h.pressure[n] /= 2
			if h.pressure[n] < 1 {
				h.pressure[n] = 0
			}
		}
	}

	// Figure 20 bookkeeping: containers provisioned per group.
	for n, tt := range h.cfg.Types {
		total := 0.0
		for m := range h.cfg.Machines {
			total += float64(dec.Quota[m][n])
		}
		h.contSeries[tt.Group].Observe(obs.Time, total)
	}

	// Quotas are guidance, not straitjackets: Algorithm 1 lets the
	// scheduler place additional containers beyond the packed set as
	// long as capacity allows, and within-period arrival surprises must
	// not stall on a stale plan. Machine counts remain the energy
	// control; the slack only relaxes the per-type mix.
	quota := h.quotaBuf
	for m := range dec.Quota {
		row := quota[m]
		for n, q := range dec.Quota[m] {
			row[n] = int(math.Ceil(float64(q)*quotaSlack)) + 1
		}
	}
	dir := sim.Directive{
		TargetActive: dec.ActiveMachines,
		Quota:        quota,
		BestFit:      true,
	}
	if h.cfg.Mode == core.CBS {
		// CBS schedules into container reservations (sized once at
		// construction; the catalog never changes mid-run).
		dir.ReserveCPU = h.reserveCPU
		dir.ReserveMem = h.reserveMem
	}
	return dir
}

// containerDemand converts forecast arrival rates into per-type container
// counts over the horizon via the M/G/c model, floored by what is already
// running or queued right now (period 0 only).
//
// Arrival attribution follows the paper's label-short-first scheme: every
// task of a class arrives labeled short, so the measured rate on the short
// type is the whole class's rate — forecast once per tick per class, read
// by both of its sub-types. The long sub-type receives its share
// (the class's long fraction) of that rate, and the short sub-type is
// additionally charged for the slots that soon-to-be-relabeled long tasks
// pin for up to one control period.
func (h *Harmony) containerDemand(obs *sim.Observation) ([][]float64, error) {
	demand := h.demandBuf
	for n := range h.cfg.Types {
		if h.shortSibling[n] != n {
			continue
		}
		if err := h.forecastRates(n, h.ratesBuf[n]); err != nil {
			return nil, err
		}
		h.lastRates[n] = h.ratesBuf[n][0]
	}
	for n, tt := range h.cfg.Types {
		rates := h.ratesBuf[h.shortSibling[n]]
		pLong := h.longFrac[n]
		mu := 1 / tt.MeanDuration
		slo := h.cfg.SLODelay * sloRatio[tt.Group]
		hint := h.solveHint[n]
		row := demand[n]
		for t := 0; t < h.cfg.Horizon; t++ {
			lambda := rates[t]
			pinned := 0.0
			if tt.ID.Sub == 0 {
				lambda *= 1 - pLong
				// Mislabeled long tasks hold short slots until the
				// next relabel pass (half a period on average).
				pinned = rates[t] * pLong * h.cfg.PeriodSeconds / 2
			} else {
				// Long tasks spend up to one period mislabeled short
				// before relabeling moves them here; only the residual
				// life occupies this sub-type's containers, and tasks
				// shorter than a period never arrive at all.
				lambda *= pLong
				residual := 1 - h.cfg.PeriodSeconds/tt.MeanDuration
				if residual < 0 {
					residual = 0
				}
				lambda *= residual
			}
			c, err := queueing.MinContainersHint(lambda, mu, tt.SqCV, slo, hint)
			if err != nil {
				return nil, fmt.Errorf("sched: containers for type %d: %w", n, err)
			}
			// Warm-start the next step (and, via solveHint, the next
			// period) with this answer; successive solves within a
			// horizon and across periods see near-identical loads.
			hint = c
			if t == 0 {
				h.solveHint[n] = c
			}
			row[t] = float64(c) + math.Ceil(pinned)
		}
		// Do not plan below the live load: running tasks hold their
		// containers, and the backlog needs extra slots to drain. A
		// queue of Q tasks with duration D drains within one period of
		// length T using ceil(Q·D/T) concurrent containers (at most Q).
		if n < len(obs.Running) && n < len(obs.Queued) {
			base := row[0]
			if live := float64(obs.Running[n]); live > base {
				base = live
			}
			window := math.Min(slo, h.cfg.PeriodSeconds)
			drain := float64(obs.Queued[n]) * tt.MeanDuration / window
			if q := float64(obs.Queued[n]); drain > q {
				drain = q
			}
			row[0] = base + math.Ceil(drain)
		}
	}
	return demand, nil
}

// newPredictor returns the unfitted forecaster a PredictorKind selects,
// for a control period of periodSeconds (the seasonal models' season is
// one day of periods). It is the model forecastRates hands histories to;
// one lives as long as the class it forecasts, so a model that can carry
// work from one fit to the next (ARIMA's stage-one sums) does.
func newPredictor(kind PredictorKind, periodSeconds float64) forecast.Predictor {
	switch kind {
	case PredictAutoARIMA:
		return &forecast.AutoARIMA{}
	case PredictSeasonal:
		return &forecast.SeasonalNaive{Season: int(trace.Day / periodSeconds)}
	case PredictHoltWinters:
		return &forecast.HoltWinters{Season: int(trace.Day / periodSeconds)}
	case PredictEWMA: // the bootstrap model below
	default:
		if ar, err := forecast.NewARIMA(2, 0, 1); err == nil {
			return ar
		}
	}
	return &forecast.EWMA{Alpha: 0.4}
}

// forecastRates writes to dst the control loop's forecast of the next
// len(dst) arrival rates of type n's class: an EWMA over whatever history
// exists before minHistory samples accumulate, after that the predictor
// the class keeps (from newPredictor) refitted on the history, and the
// EWMA again when that fit degenerates. Values no queue can be sized for
// (negative, NaN, +Inf) are zeroed.
func (h *Harmony) forecastRates(n int, dst []float64) error {
	h.forecasts++
	pred, hist := h.predictors[n], h.history[n]
	if len(hist) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	fitted := false
	if len(hist) >= minHistory {
		fitted = pred.Fit(hist) == nil
	}
	if !fitted {
		pred = &forecast.EWMA{Alpha: 0.4}
		if err := pred.Fit(hist); err != nil {
			return err
		}
	}
	rates, err := pred.Forecast(len(dst))
	if err != nil {
		return err
	}
	copy(dst, rates)
	for i, r := range dst {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 1) {
			dst[i] = 0
		}
	}
	return nil
}
