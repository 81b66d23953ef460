package trace

import (
	"math"

	"harmony/internal/stats"
)

// Day and Hour are the time units used by generator configuration, in
// seconds.
const (
	Hour = 3600.0
	Day  = 24 * Hour
)

// SizeCluster is one mode of the per-group task-size mixture. Sizes are
// drawn log-normally around the centroid so that, as in the trace, a class
// has a tight core with a spread of roughly one order of magnitude across
// classes. An Atom cluster emits the exact centroid (the paper observes
// 43% of gratis tasks at exactly CPU 0.0125, Mem 0.0159).
type SizeCluster struct {
	Weight   float64 // relative probability of this cluster
	CPU, Mem float64 // centroid demand
	Spread   float64 // sigma of the log-normal scatter; 0 makes it an atom
}

// GroupProfile configures the workload of one priority group.
type GroupProfile struct {
	Share       float64       // fraction of all tasks in this group
	Sizes       []SizeCluster // task-size mixture
	ShortFrac   float64       // fraction of short tasks
	ShortMean   float64       // mean short duration (s, log-normal)
	LongAlpha   float64       // Pareto shape for long durations
	LongMin     float64       // minimum long duration (s)
	LongMax     float64       // maximum long duration (s)
	MinClass    int           // scheduling classes drawn in [MinClass, MaxClass]
	MaxClass    int
	PriorityLo  int // raw priorities drawn uniformly in [PriorityLo, PriorityHi]
	PriorityHi  int
	TasksPerJob float64 // mean tasks per job (geometric)
	// ConstraintFrac is the fraction of jobs carrying a placement
	// constraint (pinned to one machine platform).
	ConstraintFrac float64
}

// Config fully parameterizes the synthetic generator.
type Config struct {
	Seed     int64
	Horizon  float64 // trace length (s)
	RatePerS float64 // mean task arrival rate across groups

	// Diurnal is the relative amplitude of the daily sinusoid on the
	// arrival rate (0 = flat, 0.5 = ±50%).
	Diurnal float64
	// BurstProb is the per-period probability of a workload burst;
	// BurstFactor multiplies the rate during a burst.
	BurstProb   float64
	BurstFactor float64

	Groups   [NumGroups]GroupProfile
	Machines []MachineType
}

// DefaultConfig returns a configuration that reproduces the Section III
// statistics at a scale suitable for a single machine: the same shapes and
// ratios as the 12 000-machine, 25M-task trace, scaled down by default to a
// few days and a few hundred thousand tasks (callers adjust Horizon and
// RatePerS for larger runs).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Horizon:     2 * Day,
		RatePerS:    1.5,
		Diurnal:     0.35,
		BurstProb:   0.02,
		BurstFactor: 3,
		Groups: [NumGroups]GroupProfile{
			0: { // gratis
				Share: 0.55,
				Sizes: []SizeCluster{
					{Weight: 0.43, CPU: 0.0125, Mem: 0.0159, Spread: 0}, // the exact atom from §III-D
					{Weight: 0.25, CPU: 0.006, Mem: 0.004, Spread: 0.28},
					{Weight: 0.15, CPU: 0.03, Mem: 0.008, Spread: 0.33}, // cpu-heavy
					{Weight: 0.12, CPU: 0.008, Mem: 0.05, Spread: 0.33}, // mem-heavy
					{Weight: 0.05, CPU: 0.12, Mem: 0.10, Spread: 0.44},  // large
				},
				ShortFrac:      0.75,
				ShortMean:      40,
				LongAlpha:      1.5,
				LongMin:        100,
				LongMax:        6 * Hour,
				MinClass:       0,
				MaxClass:       1,
				PriorityLo:     0,
				PriorityHi:     1,
				TasksPerJob:    20,
				ConstraintFrac: 0.004,
			},
			1: { // other
				Share: 0.40,
				Sizes: []SizeCluster{
					{Weight: 0.35, CPU: 0.02, Mem: 0.02, Spread: 0.28},
					{Weight: 0.25, CPU: 0.06, Mem: 0.015, Spread: 0.33}, // cpu-heavy
					{Weight: 0.20, CPU: 0.015, Mem: 0.08, Spread: 0.33}, // mem-heavy
					{Weight: 0.15, CPU: 0.10, Mem: 0.10, Spread: 0.39},
					{Weight: 0.05, CPU: 0.30, Mem: 0.25, Spread: 0.33}, // large
				},
				ShortFrac:      0.62,
				ShortMean:      60,
				LongAlpha:      1.4,
				LongMin:        200,
				LongMax:        8 * Hour,
				MinClass:       0,
				MaxClass:       2,
				PriorityLo:     2,
				PriorityHi:     8,
				TasksPerJob:    10,
				ConstraintFrac: 0.008,
			},
			2: { // production
				Share: 0.05,
				Sizes: []SizeCluster{
					{Weight: 0.37, CPU: 0.04, Mem: 0.04, Spread: 0.28},
					{Weight: 0.26, CPU: 0.12, Mem: 0.05, Spread: 0.28}, // cpu-heavy
					{Weight: 0.21, CPU: 0.05, Mem: 0.15, Spread: 0.28}, // mem-heavy
					{Weight: 0.12, CPU: 0.25, Mem: 0.20, Spread: 0.28},
					{Weight: 0.03, CPU: 0.55, Mem: 0.50, Spread: 0.22}, // very large
					{Weight: 0.01, CPU: 0.85, Mem: 0.75, Spread: 0.08}, // near-whole-machine
				},
				ShortFrac:      0.55,
				ShortMean:      80,
				LongAlpha:      1.35,
				LongMin:        600,
				LongMax:        17 * Day, // the paper observes production tasks up to 17 days
				MinClass:       1,
				MaxClass:       3,
				PriorityLo:     9,
				PriorityHi:     11,
				TasksPerJob:    5,
				ConstraintFrac: 0.012,
			},
		},
		Machines: GoogleLikeMachines(1200),
	}
}

// GoogleLikeMachines returns the ten machine types of Figure 5 with the
// observed population skew (>50% type 1, ~30% type 2, ~8% each types 3-4,
// small tails for types 5-10), scaled to a total of approximately n
// machines.
func GoogleLikeMachines(n int) []MachineType {
	// Fractions sum to 1; capacities echo Figure 5's spread.
	specs := []struct {
		platform string
		cpu, mem float64
		frac     float64
	}{
		{"PF-A", 0.50, 0.50, 0.53},
		{"PF-B", 0.50, 0.25, 0.31},
		{"PF-B", 0.50, 0.75, 0.077},
		{"PF-C", 1.00, 1.00, 0.076},
		{"PF-A", 0.25, 0.25, 0.004},
		{"PF-B", 0.50, 0.12, 0.003},
		{"PF-C", 0.50, 0.03, 0.0008},
		{"PF-C", 1.00, 0.50, 0.0008},
		{"PF-B", 0.25, 0.75, 0.0008},
		{"PF-C", 0.50, 1.00, 0.0006},
	}
	out := make([]MachineType, 0, len(specs))
	for i, s := range specs {
		count := int(math.Round(s.frac * float64(n)))
		if count == 0 {
			count = 1
		}
		out = append(out, MachineType{
			ID:       i + 1,
			Platform: s.platform,
			CPU:      s.cpu,
			Mem:      s.mem,
			Count:    count,
		})
	}
	return out
}

// Generate produces a synthetic trace from cfg. It is deterministic for a
// given configuration (including seed), and materializes exactly the
// stream a GenSource with the same config emits — the one-shot and
// streaming modes share one generator.
func Generate(cfg Config) (*Trace, error) {
	src, err := NewGenSource(cfg, 0)
	if err != nil {
		return nil, err
	}
	tr, err := Collect(src)
	if err != nil {
		return nil, err
	}
	// The stream is already in submit order (arrival times are
	// non-decreasing by construction); the stable sort only normalizes
	// exact-tie ordering, which the ascending task IDs already encode.
	tr.SortTasks()
	return tr, nil
}

func geometric(r *stats.RNG, mean float64) int {
	if mean <= 1 {
		return 0
	}
	p := 1 / mean
	n := 0
	for r.Float64() > p && n < 10000 {
		n++
	}
	return n
}

func drawSize(r *stats.RNG, g GroupProfile) (cpu, mem float64) {
	weights := make([]float64, len(g.Sizes))
	for i, c := range g.Sizes {
		weights[i] = c.Weight
	}
	c := g.Sizes[stats.WeightedChoice(r, weights)]
	if c.Spread == 0 {
		return clampSize(c.CPU), clampSize(c.Mem)
	}
	cpu = c.CPU * stats.LogNormal(r, 0, c.Spread)
	mem = c.Mem * stats.LogNormal(r, 0, c.Spread)
	return clampSize(cpu), clampSize(mem)
}

func clampSize(x float64) float64 {
	const lo = 0.0005
	if x < lo {
		return lo
	}
	if x > 1 {
		return 1
	}
	return x
}

func drawDuration(r *stats.RNG, g GroupProfile) float64 {
	if r.Float64() < g.ShortFrac {
		// Log-normal with the requested mean: exp(mu + s^2/2) = mean.
		// Regression: a profile with ShortMean <= 0 used to feed math.Log
		// a non-positive value, minting NaN durations that poisoned every
		// downstream delay/energy figure. Degenerate profiles now fall
		// back to the 1s duration floor (found by harmony-lint nansource).
		const sigma = 1.0
		mean := g.ShortMean
		if mean <= 0 {
			mean = 1
		}
		mu := math.Log(mean) - sigma*sigma/2
		d := stats.LogNormal(r, mu, sigma)
		if d < 1 {
			d = 1
		}
		if d > g.LongMin {
			d = g.LongMin
		}
		return d
	}
	return stats.BoundedPareto(r, g.LongAlpha, g.LongMin, g.LongMax)
}
