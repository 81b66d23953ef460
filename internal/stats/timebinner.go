package stats

import (
	"errors"
	"math"
)

// TimeBinner accumulates (time, value) observations into fixed-width time
// bins, producing a time series of per-bin sums. It is used to turn raw
// trace events into the demand/arrival-rate curves of Figures 1, 2 and 19.
type TimeBinner struct {
	Width float64 // bin width in the same unit as t
	Sums  []float64
}

// NewTimeBinner creates a binner with the given bin width (> 0).
func NewTimeBinner(width float64) (*TimeBinner, error) {
	if width <= 0 {
		return nil, errors.New("stats: time bin width must be positive")
	}
	return &TimeBinner{Width: width}, nil
}

// Observe adds value v at time t >= 0. Bins are grown on demand.
func (b *TimeBinner) Observe(t, v float64) {
	if t < 0 || math.IsNaN(t) {
		return
	}
	idx := int(t / b.Width)
	for idx >= len(b.Sums) {
		b.Sums = append(b.Sums, 0)
	}
	b.Sums[idx] += v
}

// Series converts the accumulated bins into a plottable Series, with X the
// bin start time and Y the bin sum.
func (b *TimeBinner) Series(name string) Series {
	pts := make([]Point, len(b.Sums))
	for i, s := range b.Sums {
		pts[i] = Point{X: float64(i) * b.Width, Y: s}
	}
	return Series{Name: name, Points: pts}
}

// RateSeries is like Series but divides each bin sum by the bin width,
// turning event counts into rates (events per time unit).
func (b *TimeBinner) RateSeries(name string) Series {
	pts := make([]Point, len(b.Sums))
	for i, s := range b.Sums {
		pts[i] = Point{X: float64(i) * b.Width, Y: s / b.Width}
	}
	return Series{Name: name, Points: pts}
}
