package stats

// Reservoir is a fixed-capacity uniform sample of an unbounded stream
// (Vitter's Algorithm R). It bounds the memory of per-group delay
// statistics in trace-scale simulations: the sample is an unbiased
// estimate of the full empirical distribution while holding at most k
// values, however many observations flow through.
//
// The replacement draws come from a seeded RNG, so the retained sample
// is a pure function of (seed, observation sequence) — reservoir-backed
// results replay bit-identically.
type Reservoir struct {
	k    int
	n    int64
	r    *RNG
	vals []float64
}

// NewReservoir returns a reservoir keeping a uniform sample of at most k
// observations, with replacement decisions drawn from seed.
func NewReservoir(k int, seed int64) *Reservoir {
	if k < 1 {
		k = 1
	}
	return &Reservoir{k: k, r: NewRNG(seed), vals: make([]float64, 0, k)}
}

// Add observes one value. Steady-state (post-fill) adds are
// allocation-free.
func (rv *Reservoir) Add(x float64) {
	rv.n++
	if len(rv.vals) < rv.k {
		rv.vals = append(rv.vals, x)
		return
	}
	if j := rv.r.Int63n(rv.n); j < int64(rv.k) {
		rv.vals[j] = x
	}
}

// CDF builds an empirical CDF over the retained sample.
func (rv *Reservoir) CDF() *CDF { return NewCDF(rv.vals) }
