// Package kmeans implements the K-means clustering algorithm with
// k-means++ seeding, Lloyd iterations, and the cluster-count selection
// heuristics used by HARMONY's task characterization (Section V of the
// paper): the workload is divided into task classes whose centroids later
// drive container sizing and runtime classification.
package kmeans

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/stats"
)

// Point is a feature vector.
type Point []float64

// Result holds the outcome of one clustering run.
type Result struct {
	Centroids  []Point // k centroids
	Assignment []int   // cluster index per input point
	SSE        float64 // sum of squared distances to assigned centroids
	Iterations int     // Lloyd iterations executed
}

// Config controls a clustering run.
type Config struct {
	K        int
	MaxIter  int   // Lloyd iteration cap (default 100)
	Seed     int64 // RNG seed for k-means++ initialization
	Restarts int   // independent restarts; best SSE wins (default 1)
}

var (
	// ErrNoPoints is returned when the input is empty.
	ErrNoPoints = errors.New("kmeans: no points")
	// ErrBadK is returned when K is out of range.
	ErrBadK = errors.New("kmeans: k must be in [1, len(points)]")
	// ErrDimMismatch is returned when points have differing dimensions.
	ErrDimMismatch = errors.New("kmeans: inconsistent point dimensions")
)

// Run clusters points into cfg.K clusters and returns the best result over
// cfg.Restarts independent k-means++ initializations.
func Run(points []Point, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if cfg.K < 1 || cfg.K > len(points) {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, cfg.K, len(points))
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, ErrDimMismatch
		}
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}

	r := stats.NewRNG(cfg.Seed)
	var best *Result
	for attempt := 0; attempt < cfg.Restarts; attempt++ {
		res := lloyd(points, seedPlusPlus(points, cfg.K, r), cfg.MaxIter)
		if best == nil || res.SSE < best.SSE {
			best = res
		}
	}
	return best, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy:
// each next centroid is drawn with probability proportional to its squared
// distance from the nearest already-chosen centroid.
func seedPlusPlus(points []Point, k int, r *stats.RNG) []Point {
	centroids := make([]Point, 0, k)
	first := points[r.Intn(len(points))]
	centroids = append(centroids, clonePoint(first))

	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var next Point
		if total == 0 {
			// All points coincide with existing centroids; pick any.
			next = points[r.Intn(len(points))]
		} else {
			u := r.Float64() * total
			acc := 0.0
			idx := len(points) - 1
			for i, d := range d2 {
				acc += d
				if u < acc {
					idx = i
					break
				}
			}
			next = points[idx]
		}
		centroids = append(centroids, clonePoint(next))
		for i, p := range points {
			if d := sqDist(p, next); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// lloyd runs standard Lloyd iterations to convergence or maxIter.
func lloyd(points []Point, centroids []Point, maxIter int) *Result {
	k := len(centroids)
	dim := len(points[0])
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids; empty clusters keep their position.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}

	sse := 0.0
	for i, p := range points {
		sse += sqDist(p, centroids[assign[i]])
	}
	return &Result{
		Centroids:  centroids,
		Assignment: assign,
		SSE:        sse,
		Iterations: iter,
	}
}

// ChooseK runs Run for k = 1..maxK and returns the smallest k past the
// "elbow": the first k whose relative SSE improvement over k-1 drops below
// minGain (e.g. 0.1 for 10%). This mirrors the paper's "no significant
// benefit from increasing k" selection rule.
func ChooseK(points []Point, maxK int, minGain float64, cfg Config) (int, *Result, error) {
	if maxK < 1 {
		return 0, nil, ErrBadK
	}
	if maxK > len(points) {
		maxK = len(points)
	}
	var (
		prevSSE float64
		prevRes *Result
	)
	for k := 1; k <= maxK; k++ {
		c := cfg
		c.K = k
		res, err := Run(points, c)
		if err != nil {
			return 0, nil, err
		}
		if k > 1 {
			gain := 0.0
			if prevSSE > 0 {
				gain = (prevSSE - res.SSE) / prevSSE
			}
			if gain < minGain {
				return k - 1, prevRes, nil
			}
		}
		prevSSE, prevRes = res.SSE, res
	}
	return maxK, prevRes, nil
}

func sqDist(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clonePoint(p Point) Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}
