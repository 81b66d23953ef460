package trace

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/stats"
)

// GenSource is the streaming form of the synthetic generator: it emits
// the exact task sequence Generate materializes — same config, same
// seed, bit-identical tasks in submit order — while holding only O(1)
// generator state. Generate itself is a thin Collect over this source,
// so the two modes cannot drift apart.
//
// Internally tasks are produced into a fixed-size chunk buffer and
// handed out one at a time; ChunkSize tunes the refill batch without
// changing the emitted stream.
type GenSource struct {
	cfg       Config
	r         *stats.RNG
	shares    []float64
	platforms []string
	peak      float64

	// Arrival-process state, advanced one accepted arrival at a time.
	t        float64
	burstEnd float64
	id       uint64
	jobID    uint64
	jobLeft  [NumGroups]int
	jobCur   [NumGroups]uint64
	jobCPU   [NumGroups]float64
	jobMem   [NumGroups]float64
	jobCon   [NumGroups]string

	chunk []Task // refill buffer (len = fill, cap = chunk size)
	pos   int
	done  bool
}

// genChunkSize is the default refill batch of a streaming generator.
const genChunkSize = 4096

// validateGenConfig is the shared precondition check of Generate and
// NewGenSource.
func validateGenConfig(cfg *Config) error {
	// NaN fails every comparison and +Inf passes "> 0": either would keep
	// the generator (and a simulation over it) from ever reaching the end.
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return fmt.Errorf("trace: horizon must be positive and finite, got %v", cfg.Horizon)
	}
	if !(cfg.RatePerS > 0) || math.IsInf(cfg.RatePerS, 1) {
		return fmt.Errorf("trace: rate must be positive and finite, got %v", cfg.RatePerS)
	}
	// Thinning draws candidates at the peak rate RatePerS·(1+Diurnal)·
	// max(BurstFactor, 1): an infinite peak draws every candidate at the
	// same instant, a negative one moves time backwards, and a Diurnal
	// below 0 puts the peak under the sinusoid's maximum, so the stream
	// under-samples without a word. NaN fails every comparison.
	if !(cfg.Diurnal >= 0 && cfg.Diurnal <= 1 && cfg.BurstProb >= 0 && cfg.BurstProb <= 1 && cfg.BurstFactor >= 0) || math.IsInf(cfg.BurstFactor, 1) {
		return fmt.Errorf("trace: diurnal amplitude and burst probability must be in [0, 1] and the burst factor finite and non-negative, got %v, %v and %v", cfg.Diurnal, cfg.BurstProb, cfg.BurstFactor)
	}
	if len(cfg.Machines) == 0 {
		return errors.New("trace: no machines configured")
	}
	for _, mt := range cfg.Machines {
		if mt.Count <= 0 {
			return fmt.Errorf("trace: machine type %d count must be positive, got %d", mt.ID, mt.Count)
		}
	}
	shareSum := 0.0
	for _, g := range cfg.Groups {
		if g.Share < 0 {
			return errors.New("trace: negative group share")
		}
		shareSum += g.Share
	}
	if shareSum <= 0 {
		return errors.New("trace: group shares sum to zero")
	}
	return nil
}

// NewGenSource returns a streaming generator for cfg. chunkSize tunes
// the internal refill batch (<= 0 selects the default); it has no
// effect on the emitted task sequence.
func NewGenSource(cfg Config, chunkSize int) (*GenSource, error) {
	if err := validateGenConfig(&cfg); err != nil {
		return nil, err
	}
	if chunkSize <= 0 {
		chunkSize = genChunkSize
	}
	g := &GenSource{
		cfg:    cfg,
		r:      stats.NewRNG(cfg.Seed),
		shares: make([]float64, NumGroups),
		peak:   cfg.RatePerS * (1 + cfg.Diurnal) * math.Max(cfg.BurstFactor, 1),
		chunk:  make([]Task, 0, chunkSize),
	}
	for i, gp := range cfg.Groups {
		g.shares[i] = gp.Share
	}
	g.platforms = make([]string, 0, len(cfg.Machines))
	for _, m := range cfg.Machines {
		g.platforms = append(g.platforms, m.Platform)
	}
	// The first candidate arrival, mirroring Generate's loop head.
	g.t = stats.Exponential(g.r, 1/g.peak)
	return g, nil
}

// Meta implements TaskSource. The task count of a synthetic stream is
// unknown until the horizon is reached.
func (g *GenSource) Meta() Meta {
	return Meta{Machines: g.cfg.Machines, Horizon: g.cfg.Horizon, Tasks: TasksUnknown}
}

// Next implements TaskSource.
func (g *GenSource) Next(t *Task) (bool, error) {
	if g.pos >= len(g.chunk) {
		if g.done {
			return false, nil
		}
		g.refill()
		if len(g.chunk) == 0 {
			return false, nil
		}
	}
	*t = g.chunk[g.pos]
	g.pos++
	return true, nil
}

// refill produces the next batch of accepted arrivals into the chunk
// buffer. Thinned non-homogeneous Poisson arrivals: candidates come
// from a homogeneous process at the peak rate; each is kept with
// probability rate(t)/peak.
func (g *GenSource) refill() {
	g.chunk = g.chunk[:0]
	g.pos = 0
	cfg := &g.cfg
	for g.t < cfg.Horizon {
		t := g.t
		rate := cfg.RatePerS * (1 + cfg.Diurnal*math.Sin(2*math.Pi*t/Day))
		if t < g.burstEnd {
			rate *= cfg.BurstFactor
		} else if g.r.Float64() < cfg.BurstProb*g.peak/cfg.RatePerS*1e-3 {
			g.burstEnd = t + 10*60 // ten-minute burst
			rate *= cfg.BurstFactor
		}
		accepted := g.r.Float64() < rate/g.peak
		if accepted {
			g.emit(t)
		}
		g.t += stats.Exponential(g.r, 1/g.peak)
		if accepted && len(g.chunk) == cap(g.chunk) {
			return
		}
	}
	g.done = true
}

// emit appends one accepted arrival at time t to the chunk buffer,
// drawing its job membership, size, and labels exactly as Generate did.
func (g *GenSource) emit(t float64) {
	gi := stats.WeightedChoice(g.r, g.shares)
	gp := g.cfg.Groups[gi]

	// Job membership: tasks arrive in job batches of geometric size. All
	// tasks of a job share one resource request, as in the real trace
	// (users specify the demand once per job) — this is what concentrates
	// the workload into tight classes (§III-D).
	if g.jobLeft[gi] == 0 {
		g.jobID++
		g.jobCur[gi] = g.jobID
		g.jobLeft[gi] = 1 + geometric(g.r, gp.TasksPerJob)
		g.jobCPU[gi], g.jobMem[gi] = drawSize(g.r, gp)
		g.jobCon[gi] = ""
		if len(g.platforms) > 0 && g.r.Float64() < gp.ConstraintFrac {
			g.jobCon[gi] = g.platforms[g.r.Intn(len(g.platforms))]
		}
	}
	g.jobLeft[gi]--

	g.id++
	g.chunk = append(g.chunk, Task{
		ID:         g.id,
		JobID:      g.jobCur[gi],
		Submit:     t,
		Duration:   drawDuration(g.r, gp),
		CPU:        g.jobCPU[gi],
		Mem:        g.jobMem[gi],
		Priority:   gp.PriorityLo + g.r.Intn(gp.PriorityHi-gp.PriorityLo+1),
		SchedClass: gp.MinClass + g.r.Intn(gp.MaxClass-gp.MinClass+1),
		Constraint: g.jobCon[gi],
	})
}
