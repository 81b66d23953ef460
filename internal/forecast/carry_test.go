package forecast

import (
	"math"
	"math/rand"
	"testing"
)

// sameFit reports whether two fitted models hold bit-identical
// coefficients and produce bit-identical two-step forecasts.
func sameFit(t *testing.T, a, b *ARIMA) bool {
	t.Helper()
	if math.Float64bits(a.constant) != math.Float64bits(b.constant) ||
		!sameBits(a.ar, b.ar) || !sameBits(a.ma, b.ma) {
		return false
	}
	af, err := a.Forecast(2)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := b.Forecast(2)
	if err != nil {
		t.Fatal(err)
	}
	return sameBits(af, bf)
}

// fitBoth fits the kept model and a fresh one on xs and requires the
// same verdict and, when both fit, the same bits.
func fitBoth(t *testing.T, kept *ARIMA, xs []float64, what string) {
	t.Helper()
	fresh, _ := NewARIMA(kept.P, kept.D, kept.Q)
	keptErr, freshErr := kept.Fit(xs), fresh.Fit(xs)
	if (keptErr == nil) != (freshErr == nil) {
		t.Fatalf("%s, %d points: kept model err %v, fresh %v", what, len(xs), keptErr, freshErr)
	}
	if freshErr == nil && !sameFit(t, kept, fresh) {
		t.Fatalf("%s, %d points: kept model %v %v %v, fresh %v %v %v", what, len(xs),
			kept.constant, kept.ar, kept.ma, fresh.constant, fresh.ar, fresh.ma)
	}
}

func diurnal(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Max(0, 6*(1+0.5*math.Sin(2*math.Pi*float64(i)/288))+r.NormFloat64())
	}
	return xs
}

// TestCarriedFitMatchesFresh is the oracle of the carried stage-one
// sums: one model refitted on every prefix of a series, the way the
// control loop refits a class's growing history, is at every length
// bit-identical to a model that has never seen anything — on a noisy
// diurnal series (24…3000), on an all-zero one and on a constant one (singular
// design: the ridge goes on the working copy, never into the sums), for
// orders with both stages (p = 0 and q = 2 among them), with differencing
// and with no stage one at all. The kept model also reuses its residual
// and differencing buffers, which a fresh one allocates.
func TestCarriedFitMatchesFresh(t *testing.T) {
	// Ten days of the noisy series; the degenerate ones behave the same
	// at any length, so they stop at three and a half.
	constant := make([]float64, 1000)
	for i := range constant {
		constant[i] = 3.25
	}
	series := map[string][]float64{
		"noisy diurnal": diurnal(rand.New(rand.NewSource(2013)), 3000),
		"all-zero":      make([]float64, 1000),
		"constant":      constant,
	}
	for _, order := range [][3]int{{2, 0, 1}, {1, 1, 1}, {3, 0, 0}, {0, 0, 2}, {1, 0, 2}, {3, 1, 2}} {
		for name, xs := range series {
			n := len(xs)
			kept, _ := NewARIMA(order[0], order[1], order[2])
			for l := 24; l <= n; l++ {
				// Every length while the long-AR order is still growing and
				// for two days after; one in seven beyond (a kept fit is
				// cheap, its fresh twin is what the test pays for).
				if l > 600 && l%7 != 0 && l != n {
					if err := kept.Fit(xs[:l]); err != nil {
						t.Fatalf("%v %s, %d points: %v", order, name, l, err)
					}
					continue
				}
				fitBoth(t, kept, xs[:l], name)
			}
			if want := n - order[1] - kept.long; order[2] > 0 && kept.stageOneAdds != want {
				t.Errorf("%v %s: %d stage-one rows added over all prefixes, want one per sample (%d)",
					order, name, kept.stageOneAdds, want)
			}
		}
	}
}

// TestCarriedFitRidgeDoesNotStick: a constant prefix makes the long
// autoregression singular, so its solve takes the ridge fallback; once
// the series starts varying the design is regular and the ridge must be
// gone — the kept model equals a fresh one at every length. (It did not
// when solve added λ to the accumulated diagonal in place.)
func TestCarriedFitRidgeDoesNotStick(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 5
		if i >= 60 {
			xs[i] += r.NormFloat64()
		}
	}
	kept, _ := NewARIMA(2, 0, 1)
	for l := 24; l <= len(xs); l++ {
		fitBoth(t, kept, xs[:l], "constant then noisy")
	}
}

// TestCarriedFitResets: the sums are carried only across a series that
// extends the last one bit for bit. A changed early sample, a shorter
// series, an unrelated series and a different long-AR order each start
// over, and give what a fresh model gives.
func TestCarriedFitResets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := diurnal(r, 500)
	kept, _ := NewARIMA(2, 0, 1)
	rows := func(l int) int { return l - kept.long }
	fit := func(series []float64, what string, wantAdds int) {
		t.Helper()
		before := kept.stageOneAdds
		fitBoth(t, kept, series, what)
		if got := kept.stageOneAdds - before; got != wantAdds {
			t.Errorf("%s: %d stage-one rows added, want %d", what, got, wantAdds)
		}
	}
	fit(xs[:400], "first fit", 400-7)
	fit(xs[:401], "one more sample", 1)
	fit(xs[:401], "the same series", 0)
	fit(xs[:450], "49 more samples", 49)

	edited := append([]float64(nil), xs[:460]...)
	edited[3] += 1e-9
	fit(edited, "changed early sample", rows(460))
	fit(edited[:300], "shorter series", rows(300))
	fit(diurnal(r, 300), "different series", rows(300))
	// The orders are exported fields: raising P raises the long-AR order,
	// which is a different regression over the same samples.
	kept.P = 3
	fit(xs[:300], "different long-AR order", 300-8)
}
