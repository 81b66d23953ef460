package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function built from a sample.
// The zero value is empty; use NewCDF or Add then Freeze.
type CDF struct {
	sorted []float64
	frozen bool
}

// NewCDF builds an empirical CDF from sample xs. The input slice is copied.
func NewCDF(xs []float64) *CDF {
	c := &CDF{sorted: make([]float64, len(xs))}
	copy(c.sorted, xs)
	sort.Float64s(c.sorted)
	c.frozen = true
	return c
}

// Add appends a sample point. Adding after the CDF has been queried is
// allowed; the sort is redone lazily on the next query.
func (c *CDF) Add(x float64) {
	c.sorted = append(c.sorted, x)
	c.frozen = false
}

// Len returns the number of sample points.
func (c *CDF) Len() int { return len(c.sorted) }

func (c *CDF) freeze() {
	if !c.frozen {
		sort.Float64s(c.sorted)
		c.frozen = true
	}
}

// P returns the empirical probability P[X <= x], i.e. the fraction of
// sample points that are <= x. It returns 0 for an empty CDF.
func (c *CDF) P(x float64) float64 {
	c.freeze()
	sorted := c.sorted
	if len(sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(sorted, x)
	// Advance over equal values so P is right-continuous (<=, not <).
	//harmony:allow floateq scanning stored duplicates of x requires exact equality
	for idx < len(sorted) && sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(sorted))
}

// Quantile returns the smallest sample value v such that P[X <= v] >= q,
// for q in (0,1]. For q <= 0 it returns the minimum sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	c.freeze()
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(q*float64(len(c.sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Points returns n (x, P[X<=x]) pairs evenly spaced in probability,
// suitable for plotting the CDF curve. n must be >= 2.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n < 2 {
		return nil
	}
	c.freeze()
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		pts = append(pts, Point{X: c.Quantile(q), Y: q})
	}
	return pts
}

// Point is an (x, y) pair in a plotted series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points, the unit all figure-regeneration
// code produces. Rendering is plain text: one row per point.
type Series struct {
	Name   string
	Points []Point
}

// Render writes the series as aligned text rows, the format the benchmark
// harness prints so the paper's figures can be eyeballed or re-plotted.
func (s Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# series: %s (%d points)\n", s.Name, len(s.Points))
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%12.6g %12.6g\n", p.X, p.Y)
	}
	return b.String()
}
