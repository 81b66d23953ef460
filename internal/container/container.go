// Package container implements HARMONY's container-size selection
// (Section VII-A): task classes are modeled as Gaussian demand per resource,
// and the container size c = μ + Z·σ is chosen so that, by statistical
// multiplexing, a machine packed by container sizes overflows its real
// capacity with probability at most ε (Eq. 3).
package container

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/stats"
)

// ErrBadBound is returned for error bounds outside (0,1).
var ErrBadBound = errors.New("container: error bound must be in (0,1)")

// PerResourceBound splits a joint machine-overflow bound eps across
// numResources independent resource dimensions: if each resource violates
// with probability at most eps_r and violations are independent, the joint
// violation probability is at most 1-(1-eps_r)^R <= eps when
// eps_r = 1-(1-eps)^{1/R}. An eps outside (0,1), NaN, or so small that
// eps_r rounds to 0 (an infinite Z) is ErrBadBound.
func PerResourceBound(eps float64, numResources int) (float64, error) {
	if !(eps > 0 && eps < 1) {
		return 0, fmt.Errorf("%w: eps=%v", ErrBadBound, eps)
	}
	if numResources <= 0 {
		return 0, errors.New("container: need at least one resource")
	}
	epsR := 1 - math.Pow(1-eps, 1/float64(numResources))
	if !(epsR > 0) {
		return 0, fmt.Errorf("%w: eps=%v is too small to split", ErrBadBound, eps)
	}
	return epsR, nil
}

// Size is the container reservation for one resource: c = μ + Z·σ,
// clamped below at μ (a negative Z would under-reserve) and above at cap
// (a container can never exceed the largest machine, capacity 1).
func Size(mean, stddev, z, cap float64) float64 {
	c := mean + z*stddev
	if c < mean {
		c = mean
	}
	if c > cap {
		c = cap
	}
	return c
}

// ViolationProbability returns P(Σ demand > capacity) for a group of
// tasks whose total demand is normal with the given aggregate mean and
// variance (the sum of independent per-task Gaussians).
func ViolationProbability(capacity, totalMean, totalVar float64) float64 {
	if totalVar <= 0 {
		if totalMean > capacity {
			return 1
		}
		return 0
	}
	zz := (capacity - totalMean) / math.Sqrt(totalVar)
	return 1 - stats.NormalCDF(zz)
}

// Sizing bundles the sizing decision for one task class across resources.
// Z is the multiplier for the per-resource violation bound eps_r: the
// (1-eps_r) percentile of the unit normal.
type Sizing struct {
	CPU float64
	Mem float64
	Z   float64
}

// ForClass computes the CPU and memory container sizes for a task class
// with the given per-resource means and standard deviations, a joint
// machine-overflow bound eps, and two resource dimensions (CPU, memory).
func ForClass(cpuMean, cpuStd, memMean, memStd, eps float64) (Sizing, error) {
	epsR, err := PerResourceBound(eps, 2)
	if err != nil {
		return Sizing{}, err
	}
	z := stats.NormalQuantile(1 - epsR)
	return Sizing{
		CPU: Size(cpuMean, cpuStd, z, 1),
		Mem: Size(memMean, memStd, z, 1),
		Z:   z,
	}, nil
}
