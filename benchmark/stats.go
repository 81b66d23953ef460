package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted samples by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: below that a tail percentile is an order statistic of a
// handful of outliers, not a property of the system.
const minBeyond = 10

// tailPercentiles are the candidates of the percentile rule, ascending.
var tailPercentiles = []float64{0.90, 0.95, 0.99, 0.999}

// tailPercentile applies the percentile rule: the highest candidate
// with at least minBeyond of n samples beyond it. ok is false when even
// p90 has too few (n < 100).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if beyond(n, c) >= minBeyond {
			p, ok = c, true
		}
	}
	return p, ok
}

// beyond is the number of n samples expected above percentile p. The
// epsilon keeps 0.1*100 from rounding down to 9.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p) + 1e-9))
}

// summary is the five-number view of one metric's samples.
type summary struct {
	N              int
	Q1, Median, Q3 float64
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
