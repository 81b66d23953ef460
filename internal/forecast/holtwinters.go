package forecast

import "math"

// HoltWinters is additive triple exponential smoothing: a level, a linear
// trend, and an additive seasonal cycle of Season samples, each updated
// with its own smoothing factor. It is the first member of the forecast
// model zoo that handles the trending diurnal arrival series of Figure 19
// natively — SeasonalNaive tracks the cycle but not the trend, EWMA the
// level but neither — and it is selectable as the daemon's forecaster
// (sched.PredictHoltWinters).
type HoltWinters struct {
	// Season is the cycle length in samples (required, > 0); e.g.
	// trace.Day / PeriodSeconds for a diurnal cycle at the control period.
	Season int

	level    float64
	trend    float64
	seasonal []float64 // additive seasonal indices, length Season
	nextIdx  int       // seasonal index of the first forecast step
	fitted   bool
}

// The level, trend, and seasonal smoothing factors.
const hwAlpha, hwBeta, hwGamma = 0.3, 0.05, 0.2

// Fit implements Predictor. It needs at least two full seasons: the first
// initializes the level and seasonal indices, the second anchors the
// initial trend estimate.
func (hw *HoltWinters) Fit(series []float64) error {
	m := hw.Season
	if m <= 0 {
		return ErrBadHorizon
	}
	if len(series) < 2*m {
		return ErrTooShort
	}
	// Classical initialization: the level is the first season's mean, the
	// trend the per-sample drift between the first two seasons' means, and
	// each seasonal index the deviation from its season's mean averaged
	// over every complete season in the series.
	mean0, mean1 := 0.0, 0.0
	for i := 0; i < m; i++ {
		mean0 += series[i]
		mean1 += series[m+i]
	}
	mean0 /= float64(m)
	mean1 /= float64(m)
	level := mean0
	trend := (mean1 - mean0) / float64(m)

	seasons := len(series) / m
	seasonal := make([]float64, m)
	for i := 0; i < m; i++ {
		sum := 0.0
		for j := 0; j < seasons; j++ {
			seasonMean := 0.0
			for k := 0; k < m; k++ {
				seasonMean += series[j*m+k]
			}
			seasonMean /= float64(m)
			sum += series[j*m+i] - seasonMean
		}
		seasonal[i] = sum / float64(seasons)
	}

	// Run the smoothing recursions over the whole series.
	for t, x := range series {
		i := t % m
		s := seasonal[i]
		prevLevel := level
		level = hwAlpha*(x-s) + (1-hwAlpha)*(level+trend)
		trend = hwBeta*(level-prevLevel) + (1-hwBeta)*trend
		seasonal[i] = hwGamma*(x-level) + (1-hwGamma)*s
	}
	if math.IsNaN(level) || math.IsInf(level, 0) ||
		math.IsNaN(trend) || math.IsInf(trend, 0) {
		return ErrTooShort
	}

	hw.level = level
	hw.trend = trend
	hw.seasonal = seasonal
	hw.nextIdx = len(series) % m
	hw.fitted = true
	return nil
}

// Forecast implements Predictor: level plus extrapolated trend plus the
// seasonal index of each future slot.
func (hw *HoltWinters) Forecast(h int) ([]float64, error) {
	if !hw.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, ErrBadHorizon
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = hw.level + float64(i+1)*hw.trend + hw.seasonal[(hw.nextIdx+i)%hw.Season]
	}
	return out, nil
}
