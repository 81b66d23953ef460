package stats

import (
	"math"
	"math/rand"
)

// RNG is the module-wide deterministic random source. It aliases
// math/rand.Rand so the generator streams (and therefore every committed
// golden figure) are unchanged, but construction is funneled through
// NewRNG: the rngdiscipline analyzer in internal/lint forbids raw
// rand.New/rand.NewSource outside this package, so every stream in the
// codebase is a named, explicitly seeded source.
type RNG = rand.Rand

// NewRNG returns an RNG deterministically seeded with seed. Equal seeds
// yield bit-identical streams on every platform and GOMAXPROCS setting.
func NewRNG(seed int64) *RNG {
	return rand.New(rand.NewSource(seed))
}

// LogNormal draws a log-normal variate with the given parameters of the
// underlying normal (mu, sigma of log X). Task sizes and durations in
// production traces span orders of magnitude; log-normal mixtures are the
// generator's workhorse.
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// BoundedPareto draws from a Pareto distribution with shape alpha truncated
// to [lo, hi] via inverse-transform sampling. It models heavy-tailed task
// durations (the paper reports production tasks running up to 17 days).
func BoundedPareto(r *rand.Rand, alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return lo
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Exponential draws an exponential variate with the given mean.
func Exponential(r *rand.Rand, mean float64) float64 {
	return r.ExpFloat64() * mean
}

// TruncNormal draws a normal variate with mean mu and stddev sigma,
// resampling until the result lies in [lo, hi]. It falls back to clamping
// after a bounded number of attempts so it cannot loop forever on
// pathological parameters.
func TruncNormal(r *rand.Rand, mu, sigma, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		x := mu + sigma*r.NormFloat64()
		if x >= lo && x <= hi {
			return x
		}
	}
	x := mu
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return x
}

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Non-positive total weight
// returns 0.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
