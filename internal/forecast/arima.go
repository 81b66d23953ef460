package forecast

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

	// Buffers a refit reuses, so that it allocates nothing in proportion
	// to the history: the differenced series when D > 0, the stage-one
	// residuals, the intercept's column of 1s, and stage two's normal
	// equations with the dot products that fill them.
	diff, resid, ones []float64
	stageTwo          *normalEq
	dots              []lagDot
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
	w := m.difference(series)

	// Stage one: long AR to estimate innovations.
	long := max(min(m.P+m.Q+4, len(w)/2), 1)
	start := m.P
	if m.Q > 0 {
		c0, phi0, err := m.fitLongAR(w, long)
		if err != nil {
			return err
		}
		m.resid = slices.Grow(m.resid[:0], len(w))[:len(w)]
		residuals(m.resid, w, c0, phi0)
		start = max(start, long+m.Q)
	}

	// Stage two: regress w_t on p lags of w and q lags of residuals.
	if len(w)-start <= 1+m.P+m.Q {
		return ErrTooShort
	}
	beta, err := m.stageTwoSums(w, start).solve()
	if err != nil {
		return err
	}
	m.constant = beta[0]
	m.ar = beta[1 : 1+m.P]
	m.ma = beta[1+m.P:]

	// Retain tails for forecasting. Differencing in place left each
	// level's last value behind its successor (see difference).
	m.diffTail = append(m.diffTail[:0], w[len(w)-m.P:]...)
	m.residTail = m.residTail[:0]
	if m.Q > 0 {
		m.residTail = append(m.residTail, m.resid[len(w)-m.Q:len(w)]...)
	}
	m.lastVals = m.lastVals[:0]
	for level := 0; level < m.D; level++ {
		last := series[len(series)-1]
		if level > 0 {
			last = m.diff[len(series)-1-level]
		}
		m.lastVals = append(m.lastVals, last)
	}
	m.fitted = true
	return nil
}

// difference returns series differenced D times: series itself, read
// only, when D is 0, else the model's own buffer differenced in place.
// Level k (k = 1 … D−1) occupies diff[:len(series)−k] until level k+1
// overwrites all of it but its last slot, so diff[len(series)−1−k] ends
// up holding the last value of level k — the integration state.
func (m *ARIMA) difference(series []float64) []float64 {
	if m.D == 0 {
		return series
	}
	n := len(series) - 1
	m.diff = slices.Grow(m.diff[:0], n)[:n]
	for j := range m.diff {
		m.diff[j] = series[j+1] - series[j]
	}
	for level := 1; level < m.D; level++ {
		n--
		for j := 0; j < n; j++ {
			m.diff[j] = m.diff[j+1] - m.diff[j]
		}
	}
	return m.diff[:n]
}

// residuals writes stage one's innovations e_t = w_t − (c0 + Σ_j φ_j·w_{t−1−j})
// for t ≥ len(phi) as one pass over the series per lag instead of one
// dependent chain per t. Each e_t still starts from c0 and takes the
// terms in ascending j, so it is the same float the per-t loop computes.
// e[:len(phi)] is not written: stage two never reads it.
func residuals(e, w []float64, c0 float64, phi []float64) {
	long := len(phi)
	e = e[long:len(w)]
	for t := range e {
		e[t] = c0
	}
	for j, f := range phi {
		lag := w[long-1-j:][:len(e)]
		for t, x := range lag {
			e[t] += f * x
		}
	}
	y := w[long:][:len(e)]
	for t, x := range y {
		e[t] = x - e[t]
	}
}

// stageTwoSums returns the normal equations of w_t on an intercept, P lags
// of w and Q lags of the residuals, t = start … len(w)−1. Each entry of
// XᵀX and Xᵀy is the dot product of two lagged views of {1, w, e} over
// those rows, and a dot product taken in ascending t is the sum
// normalEq.add would have built row by row, bit for bit: 1·x is exact.
// The sums are written, not added, so the model keeps one normalEq for
// the stage across fits.
func (m *ARIMA) stageTwoSums(w []float64, start int) *normalEq {
	cols := 1 + m.P + m.Q
	if m.stageTwo == nil || len(m.stageTwo.row) != cols {
		m.stageTwo = newNormalEq(cols)
	}
	ne := m.stageTwo
	rows := len(w) - start
	if len(m.ones) < rows {
		m.ones = slices.Grow(m.ones, rows-len(m.ones))
		for len(m.ones) < rows {
			m.ones = append(m.ones, 1)
		}
	}
	// view(k) is design column k over the rows, view(cols) the target.
	view := func(k int) []float64 {
		switch {
		case k == 0:
			return m.ones[:rows]
		case k <= m.P:
			return w[start-k : len(w)-k]
		case k < cols:
			lag := k - m.P
			return m.resid[start-lag : len(w)-lag]
		}
		return w[start:]
	}
	m.dots = m.dots[:0]
	for i := 0; i < cols; i++ {
		vi := view(i)
		m.dots = append(m.dots, lagDot{vi, view(cols), &ne.xty[i]})
		for j := i; j < cols; j++ {
			m.dots = append(m.dots, lagDot{vi, view(j), &ne.xtx[i][j]})
		}
	}
	sumLagDots(m.dots)
	return ne
}

// lagDot is one entry of the normal equations: *dst = Σ_t a[t]·b[t].
type lagDot struct {
	a, b []float64
	dst  *float64
}

// sumLagDots computes every job's dot product in ascending t, four jobs
// per pass so their sums stay in registers.
func sumLagDots(jobs []lagDot) {
	for ; len(jobs) >= 4; jobs = jobs[4:] {
		j := jobs[:4:4]
		*j[0].dst, *j[1].dst, *j[2].dst, *j[3].dst =
			dot4(j[0].a, j[0].b, j[1].a, j[1].b, j[2].a, j[2].b, j[3].a, j[3].b)
	}
	for _, j := range jobs {
		s, b := 0.0, j.b[:len(j.a)]
		for t, x := range j.a {
			s += x * b[t]
		}
		*j.dst = s
	}
}

// dot4 returns four dot products of equal-length pairs.
func dot4(a0, b0, a1, b1, a2, b2, a3, b3 []float64) (s0, s1, s2, s3 float64) {
	n := len(a0)
	b0, a1, b1, a2, b2, a3, b3 = b0[:n], a1[:n], b1[:n], a2[:n], b2[:n], a3[:n], b3[:n]
	for t, x := range a0 {
		s0 += x * b0[t]
		s1 += a1[t] * b1[t]
		s2 += a2[t] * b2[t]
		s3 += a3[t] * b3[t]
	}
	return s0, s1, s2, s3
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
// added after a solve. (Stage two writes its sums whole instead; see
// stageTwoSums.)
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
