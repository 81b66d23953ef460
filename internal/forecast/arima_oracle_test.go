package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fitMaterialized is ARIMA.Fit as it was before the normal equations were
// accumulated row by row: both regressions build their design matrix one
// heap row per observation and hand it to leastSquares. It is kept here as
// the bit-for-bit oracle of the streaming fit, the way lp's dense_test.go
// keeps the dense tableau.
func (m *ARIMA) fitMaterialized(series []float64) error {
	need := m.D + m.P + m.Q + 8
	if len(series) < need {
		return fmt.Errorf("%w: have %d, need >= %d", ErrTooShort, len(series), need)
	}
	w, err := Difference(series, m.D)
	if err != nil {
		return err
	}
	long := m.P + m.Q + 4
	if long > len(w)/2 {
		long = len(w) / 2
	}
	if long < 1 {
		long = 1
	}
	resid := make([]float64, len(w))
	start := m.P
	if m.Q > 0 {
		if len(w)-long <= 1+long {
			return ErrTooShort
		}
		x, y := lagMatrix(w, nil, long, 0, long)
		beta, err := leastSquares(x, y)
		if err != nil {
			return err
		}
		for t := long; t < len(w); t++ {
			pred := beta[0]
			for j := 0; j < long; j++ {
				pred += beta[1+j] * w[t-1-j]
			}
			resid[t] = w[t] - pred
		}
		if s := long + m.Q; s > start {
			start = s
		}
	}
	if len(w)-start <= 1+m.P+m.Q {
		return ErrTooShort
	}
	x, y := lagMatrix(w, resid, m.P, m.Q, start)
	beta, err := leastSquares(x, y)
	if err != nil {
		return err
	}
	m.constant = beta[0]
	m.ar = beta[1 : 1+m.P]
	m.ma = beta[1+m.P:]
	m.diffTail = tail(w, m.P)
	m.residTail = tail(resid, m.Q)
	m.lastVals = lastIntegrationState(series, m.D)
	m.fitted = true
	return nil
}

// lagMatrix materializes the regression of w_t on an intercept, p lags of
// w and q lags of resid, for t = start … len(w)-1.
func lagMatrix(w, resid []float64, p, q, start int) (x [][]float64, y []float64) {
	for t := start; t < len(w); t++ {
		row := make([]float64, 1+p+q)
		row[0] = 1
		for j := 0; j < p; j++ {
			row[1+j] = w[t-1-j]
		}
		for j := 0; j < q; j++ {
			row[1+p+j] = resid[t-1-j]
		}
		x = append(x, row)
		y = append(y, w[t])
	}
	return x, y
}

// leastSquares solves min ||Xb - y||² via the normal equations with a
// ridge fallback for (near-)singular designs.
func leastSquares(x [][]float64, y []float64) ([]float64, error) {
	rows := len(x)
	if rows == 0 {
		return nil, ErrTooShort
	}
	cols := len(x[0])
	if cols == 0 {
		return nil, ErrTooShort
	}
	// Build XtX and Xty.
	xtx := make([][]float64, cols)
	xty := make([]float64, cols)
	for i := 0; i < cols; i++ {
		xtx[i] = make([]float64, cols)
	}
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			xty[i] += x[r][i] * y[r]
			for j := i; j < cols; j++ {
				xtx[i][j] += x[r][i] * x[r][j]
			}
		}
	}
	for i := 0; i < cols; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	b, err := solveSPD(xtx, xty)
	if err == nil {
		return b, nil
	}
	// Ridge fallback: add a small multiple of the diagonal scale.
	scale := 0.0
	for i := 0; i < cols; i++ {
		scale += xtx[i][i]
	}
	lambda := 1e-8 * (scale/float64(cols) + 1)
	for i := 0; i < cols; i++ {
		xtx[i][i] += lambda
	}
	return solveSPD(xtx, xty)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStreamingFitMatchesMaterialized pins the arithmetic of the
// allocation-free fit: coefficients and forecasts are bit-identical to
// the materialized-matrix fit on noisy diurnal series of every length the
// control loop sees, on a constant series (singular design, ridge
// fallback) and on an all-zero one. The orders cover the lag views stage
// two's dot products index: no AR lag (p = 0), a residual lag of 2
// (q = 2), one differencing level and two (d = 2 reads the integration
// state off the levels differenced in place).
func TestStreamingFitMatchesMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(2013))
	noisy := func(n int) []float64 {
		xs := make([]float64, n)
		level := 1 + r.Float64()*20
		for i := range xs {
			xs[i] = level*(1+0.5*math.Sin(2*math.Pi*float64(i)/288)) + r.NormFloat64()
			if xs[i] < 0 {
				xs[i] = 0
			}
		}
		return xs
	}
	constant := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 3.25
		}
		return xs
	}
	series := map[string][]float64{
		"constant 24": constant(24), "constant 500": constant(500),
		"zero 24": make([]float64, 24), "zero 500": make([]float64, 500),
	}
	for _, n := range []int{24, 25, 31, 48, 100, 288, 577, 1000, 1440, 3000} {
		series[fmt.Sprintf("noisy %d", n)] = noisy(n)
	}
	for _, order := range [][3]int{{2, 0, 1}, {1, 1, 1}, {3, 0, 0}, {0, 0, 2}, {1, 0, 2}, {3, 1, 2}, {1, 2, 1}} {
		for name, xs := range series {
			got, _ := NewARIMA(order[0], order[1], order[2])
			want, _ := NewARIMA(order[0], order[1], order[2])
			gotErr, wantErr := got.Fit(xs), want.fitMaterialized(xs)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%v %s: streaming fit err %v, materialized %v", order, name, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if math.Float64bits(got.constant) != math.Float64bits(want.constant) ||
				!sameBits(got.ar, want.ar) || !sameBits(got.ma, want.ma) {
				t.Errorf("%v %s: coefficients differ: %v %v %v vs %v %v %v", order, name,
					got.constant, got.ar, got.ma, want.constant, want.ar, want.ma)
			}
			gf, err := got.Forecast(2)
			if err != nil {
				t.Fatal(err)
			}
			wf, err := want.Forecast(2)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(gf, wf) {
				t.Errorf("%v %s: forecast %v vs %v", order, name, gf, wf)
			}
		}
	}
}

// TestARIMAFitAllocsIndependentOfLength is the cost contract of the
// streaming normal equations: a fit allocates the same small number of
// objects whether it sees one day of history or ten. The model is kept
// across the fits, as the control loop keeps it, so stage one's
// accumulators are not among them (18 objects before they were carried,
// 14 since, 6 — the two solves — since stage two's sums and the
// residuals are kept too).
func TestARIMAFitAllocsIndependentOfLength(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()
	}
	m, _ := NewARIMA(2, 0, 1)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := m.Fit(xs[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(300), allocs(3000)
	if short != long {
		t.Errorf("Fit allocates %.0f objects at 300 points, %.0f at 3000", short, long)
	}
	if lid := 6.0; long > lid {
		t.Errorf("Fit allocates %.0f objects, budget %.0f", long, lid)
	}
	t.Logf("Fit: %.0f allocs at 300 points, %.0f at 3000", short, long)
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

// TestARIMAFitAllocBytesIndependentOfLength is the byte side of that
// contract: a kept model's extending fit allocates as many bytes after
// 300 samples as after 3,000. The series is not copied, and the
// differenced series (D > 0), the residuals and the intercept's column
// live in buffers the model keeps, which the first extending fit grows.
func TestARIMAFitAllocBytesIndependentOfLength(t *testing.T) {
	for _, order := range [][3]int{{2, 0, 1}, {1, 1, 1}} {
		bytes := func(h int) int64 {
			xs := benchSeries(h + 1)
			m, _ := NewARIMA(order[0], order[1], order[2])
			if err := m.Fit(xs[:h]); err != nil {
				t.Fatal(err)
			}
			rollback := keepStageOne(m)
			if err := m.Fit(xs); err != nil {
				t.Fatal(err)
			}
			var fitErr error
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rollback()
					if err := m.Fit(xs); err != nil {
						fitErr = err
					}
				}
			})
			if fitErr != nil || res.N == 0 {
				t.Fatalf("%v: extending fit after %d samples: %v in %d runs", order, h, fitErr, res.N)
			}
			return res.AllocedBytesPerOp()
		}
		short, long := bytes(300), bytes(3000)
		if short != long {
			t.Errorf("%v: an extending fit allocates %d bytes after 300 samples, %d after 3000", order, short, long)
		}
		t.Logf("%v: extending fit allocates %d bytes after 300 samples, %d after 3000", order, short, long)
	}
}
