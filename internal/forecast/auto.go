package forecast

import (
	"math"
)

// SeasonalNaive predicts the value observed one season earlier (e.g. the
// same 5-minute slot yesterday). It is the natural baseline for the
// strongly diurnal arrival-rate series of Figure 19.
type SeasonalNaive struct {
	// Season is the period length in samples (required, > 0).
	Season int

	tail   []float64 // last Season observations
	fitted bool
}

// Fit implements Predictor.
func (s *SeasonalNaive) Fit(series []float64) error {
	if s.Season <= 0 {
		return ErrBadHorizon
	}
	if len(series) < s.Season {
		return ErrTooShort
	}
	s.tail = append(s.tail[:0], series[len(series)-s.Season:]...)
	s.fitted = true
	return nil
}

// Forecast implements Predictor.
func (s *SeasonalNaive) Forecast(h int) ([]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, ErrBadHorizon
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = s.tail[i%s.Season]
	}
	return out, nil
}

// AutoARIMA selects ARIMA orders by minimizing AIC over a small grid and
// delegates to the winning model. The grid covers p in [0,MaxP], q in
// [0,MaxQ], d in [0,MaxD] (defaults 3/2/1), skipping p=q=0.
type AutoARIMA struct {
	MaxP, MaxD, MaxQ int

	chosen *ARIMA
}

// Fit implements Predictor: grid-search orders by AIC.
func (a *AutoARIMA) Fit(series []float64) error {
	maxP, maxD, maxQ := a.MaxP, a.MaxD, a.MaxQ
	if maxP <= 0 {
		maxP = 3
	}
	if maxD < 0 {
		maxD = 0
	} else if maxD == 0 {
		maxD = 1
	}
	if maxQ <= 0 {
		maxQ = 2
	}

	bestAIC := math.Inf(1)
	var best *ARIMA
	for d := 0; d <= maxD; d++ {
		for p := 0; p <= maxP; p++ {
			for q := 0; q <= maxQ; q++ {
				if p+q == 0 {
					continue
				}
				m, err := NewARIMA(p, d, q)
				if err != nil {
					continue
				}
				if err := m.Fit(series); err != nil {
					continue
				}
				aic, err := aicOf(m, series)
				if err != nil {
					continue
				}
				if aic < bestAIC {
					bestAIC = aic
					best = m
				}
			}
		}
	}
	if best == nil {
		return ErrTooShort
	}
	a.chosen = best
	return nil
}

// Forecast implements Predictor.
func (a *AutoARIMA) Forecast(h int) ([]float64, error) {
	if a.chosen == nil {
		return nil, ErrNotFitted
	}
	return a.chosen.Forecast(h)
}

// aicOf computes AIC from in-sample one-step residuals of a fitted ARIMA:
// AIC = n·ln(SSE/n) + 2k with k = p+q+1 parameters.
func aicOf(m *ARIMA, series []float64) (float64, error) {
	w, err := Difference(series, m.D)
	if err != nil {
		return 0, err
	}
	start := m.P
	if m.Q > 0 {
		start += m.Q + 4 + m.P
		if half := len(w) / 2; start > half+m.Q {
			start = half + m.Q
		}
	}
	if start < m.P {
		start = m.P
	}
	n := 0
	sse := 0.0
	// Reconstruct one-step in-sample predictions with zero innovations
	// (the MA terms contribute through the fitted residual tail only at
	// the end of the series, so this is an approximation adequate for
	// order selection).
	for t := start; t < len(w); t++ {
		pred := m.constant
		for j := 0; j < m.P && t-1-j >= 0; j++ {
			pred += m.ar[j] * w[t-1-j]
		}
		d := w[t] - pred
		sse += d * d
		n++
	}
	if n <= 0 || sse <= 0 {
		return math.Inf(1), nil
	}
	k := float64(m.P + m.Q + 1)
	return float64(n)*math.Log(sse/float64(n)) + 2*k, nil
}
