package forecast

import (
	"errors"
	"fmt"
	"math"
)

// ARIMA is an autoregressive integrated moving-average model ARIMA(p,d,q),
// the predictor the paper uses for per-class arrival rates [7]. Parameters
// are estimated with the Hannan–Rissanen procedure: a long autoregression
// supplies innovation estimates, then a single least-squares regression on
// lagged values and lagged innovations yields the AR and MA coefficients.
type ARIMA struct {
	P, D, Q int

	constant float64
	ar       []float64 // φ_1..φ_p
	ma       []float64 // θ_1..θ_q
	// tail state retained from fitting, used to seed forecasts
	diffTail  []float64 // last P values of the differenced series
	residTail []float64 // last Q residuals
	lastVals  []float64 // last D values of the raw series (for integration)
	fitted    bool

	// Stage one's normal equations, carried from one Fit to the next: the
	// long autoregression has one design row per sample, in sample order,
	// so a series that extends the previous one only appends rows. seen
	// is the differenced series whose rows stageOne has absorbed, at
	// long-AR order long; a Fit whose differenced series does not start
	// with seen bit for bit, or whose order differs, starts the sums over
	// — a fresh model is a carried model with nothing carried. The sums
	// are accumulated in the same order either way, so the coefficients
	// are bit-identical.
	stageOne *normalEq
	long     int
	seen     []float64
	// stageOneAdds counts rows added to stageOne over the model's life
	// (cost contract: an extending Fit adds only the new rows).
	stageOneAdds int
}

// NewARIMA constructs an ARIMA(p,d,q) model. Orders must be non-negative
// and p+q must be positive.
func NewARIMA(p, d, q int) (*ARIMA, error) {
	if p < 0 || d < 0 || q < 0 {
		return nil, errors.New("forecast: negative ARIMA order")
	}
	if p+q == 0 {
		return nil, errors.New("forecast: ARIMA needs p+q > 0")
	}
	return &ARIMA{P: p, D: d, Q: q}, nil
}

// Fit implements Predictor.
func (m *ARIMA) Fit(series []float64) error {
	need := m.D + m.P + m.Q + 8
	if len(series) < need {
		return fmt.Errorf("%w: have %d, need >= %d", ErrTooShort, len(series), need)
	}
	w, err := Difference(series, m.D)
	if err != nil {
		return err
	}

	resid := make([]float64, len(w))
	if m.Q > 0 {
		// Stage one: long AR to estimate innovations.
		long := m.P + m.Q + 4
		if long > len(w)/2 {
			long = len(w) / 2
		}
		if long < 1 {
			long = 1
		}
		c0, phi0, err := m.fitLongAR(w, long)
		if err != nil {
			return err
		}
		for t := long; t < len(w); t++ {
			pred := c0
			for j := 0; j < long; j++ {
				pred += phi0[j] * w[t-1-j]
			}
			resid[t] = w[t] - pred
		}
	}

	// Stage two: regress w_t on p lags of w and q lags of residuals.
	start := m.P
	if m.Q > 0 {
		lo := m.P + m.Q + 4
		if lo > len(w)/2 {
			lo = len(w) / 2
		}
		if lo < 1 {
			lo = 1
		}
		if s := lo + m.Q; s > start {
			start = s
		}
	}
	rows := len(w) - start
	cols := 1 + m.P + m.Q
	if rows <= cols {
		return ErrTooShort
	}
	ne := newNormalEq(cols)
	for t := start; t < len(w); t++ {
		ne.row[0] = 1
		for j := 0; j < m.P; j++ {
			ne.row[1+j] = w[t-1-j]
		}
		for j := 0; j < m.Q; j++ {
			ne.row[1+m.P+j] = resid[t-1-j]
		}
		ne.add(w[t])
	}
	beta, err := ne.solve()
	if err != nil {
		return err
	}
	m.constant = beta[0]
	m.ar = beta[1 : 1+m.P]
	m.ma = beta[1+m.P:]

	// Retain tails for forecasting.
	m.diffTail = tail(w, m.P)
	m.residTail = tail(resid, m.Q)
	m.lastVals = lastIntegrationState(series, m.D)
	m.fitted = true
	return nil
}

// Forecast implements Predictor. Future innovations are set to zero; the
// differenced forecasts are integrated back D times.
func (m *ARIMA) Forecast(h int) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, ErrBadHorizon
	}
	w := append([]float64(nil), m.diffTail...)
	e := append([]float64(nil), m.residTail...)
	out := make([]float64, 0, h)
	for i := 0; i < h; i++ {
		pred := m.constant
		for j := 0; j < m.P; j++ {
			idx := len(w) - 1 - j
			if idx >= 0 {
				pred += m.ar[j] * w[idx]
			}
		}
		for j := 0; j < m.Q; j++ {
			idx := len(e) - 1 - j
			if idx >= 0 {
				pred += m.ma[j] * e[idx]
			}
		}
		w = append(w, pred)
		e = append(e, 0)
		out = append(out, pred)
	}
	// Integrate back d times using the stored integration state.
	for d := m.D - 1; d >= 0; d-- {
		acc := m.lastVals[d]
		for i := range out {
			acc += out[i]
			out[i] = acc
		}
	}
	return out, nil
}

// fitLongAR estimates stage one's AR(long) model with intercept by
// ordinary least squares on w, adding to the carried normal equations
// only the rows they have not absorbed yet.
func (m *ARIMA) fitLongAR(w []float64, long int) (c float64, phi []float64, err error) {
	if len(w)-long <= 1+long {
		return 0, nil, ErrTooShort
	}
	if m.stageOne == nil || m.long != long || !extends(w, m.seen) {
		m.stageOne, m.long, m.seen = newNormalEq(1+long), long, m.seen[:0]
	}
	ne := m.stageOne
	for t := max(len(m.seen), long); t < len(w); t++ {
		ne.row[0] = 1
		for j := 0; j < long; j++ {
			ne.row[1+j] = w[t-1-j]
		}
		ne.add(w[t])
		m.stageOneAdds++
	}
	m.seen = append(m.seen, w[len(m.seen):]...)
	beta, err := ne.solve()
	if err != nil {
		return 0, nil, err
	}
	return beta[0], beta[1:], nil
}

// extends reports whether w starts with prefix, bit for bit.
func extends(w, prefix []float64) bool {
	if len(w) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if math.Float64bits(w[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// normalEq accumulates the normal equations XᵀX·b = Xᵀy of a
// least-squares fit one design row at a time, so a fit over n
// observations allocates a fixed handful of cols-sized buffers instead
// of n rows: the caller fills row and calls add with that row's target.
// solve reads the sums without changing them, so rows can keep being
// added after a solve.
type normalEq struct {
	row []float64   // the design row being added; reused across add calls
	xtx [][]float64 // upper triangle only
	xty []float64
	sym [][]float64 // solve's working copy of xtx: mirrored, plus the ridge
}

func newNormalEq(cols int) *normalEq {
	cells := make([]float64, 2*cols*cols)
	rows := make([][]float64, 2*cols)
	for i := range rows {
		rows[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return &normalEq{
		row: make([]float64, cols),
		xtx: rows[:cols:cols],
		xty: make([]float64, cols),
		sym: rows[cols:],
	}
}

// add folds the current row, with target y, into XᵀX and Xᵀy.
func (ne *normalEq) add(y float64) {
	row := ne.row
	xty := ne.xty[:len(row)]
	for i, xi := range row {
		xty[i] += xi * y
		rest := row[i:]
		acc := ne.xtx[i][i:][:len(rest)] // same length as rest: no bounds checks in the loop
		for j, xj := range rest {
			acc[j] += xi * xj
		}
	}
}

// solve returns argmin ||Xb - y||² over the rows added so far, with a
// ridge fallback for (near-)singular designs. The ridge goes on the
// working copy: a design that was singular over a constant prefix must
// not stay regularized once later rows make it regular.
func (ne *normalEq) solve() ([]float64, error) {
	cols := len(ne.row)
	if cols == 0 {
		return nil, ErrTooShort
	}
	for i := 0; i < cols; i++ {
		for j := 0; j < i; j++ {
			ne.sym[i][j] = ne.xtx[j][i]
		}
		copy(ne.sym[i][i:], ne.xtx[i][i:])
	}
	b, err := solveSPD(ne.sym, ne.xty)
	if err == nil {
		return b, nil
	}
	// Ridge fallback: add a small multiple of the diagonal scale.
	scale := 0.0
	for i := 0; i < cols; i++ {
		scale += ne.sym[i][i]
	}
	lambda := 1e-8 * (scale/float64(cols) + 1)
	for i := 0; i < cols; i++ {
		ne.sym[i][i] += lambda
	}
	return solveSPD(ne.sym, ne.xty)
}

// solveSPD solves Ax=b by Gaussian elimination with partial pivoting.
func solveSPD(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on an augmented copy to leave inputs intact for the ridge retry.
	cells := make([]float64, n*(n+1))
	m := make([][]float64, n)
	for i := range m {
		m[i] = cells[i*(n+1) : (i+1)*(n+1)]
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, errors.New("forecast: singular normal equations")
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

func tail(xs []float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n > len(xs) {
		n = len(xs)
	}
	return append([]float64(nil), xs[len(xs)-n:]...)
}

// lastIntegrationState returns, for each differencing level d = 0..D-1,
// the last value of the d-times-differenced series, which seeds the
// cumulative sums that undo differencing.
func lastIntegrationState(series []float64, d int) []float64 {
	out := make([]float64, d)
	cur := series
	for level := 0; level < d; level++ {
		out[level] = cur[len(cur)-1]
		next := make([]float64, len(cur)-1)
		for j := 1; j < len(cur); j++ {
			next[j-1] = cur[j] - cur[j-1]
		}
		cur = next
	}
	return out
}
