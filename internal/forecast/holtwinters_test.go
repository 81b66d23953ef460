package forecast

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestHoltWintersErrors(t *testing.T) {
	bad := &HoltWinters{}
	if err := bad.Fit([]float64{1, 2, 3, 4}); err == nil {
		t.Error("zero season accepted")
	}
	hw := &HoltWinters{Season: 4}
	if err := hw.Fit([]float64{1, 2, 3, 4, 5, 6, 7}); !errors.Is(err, ErrTooShort) {
		t.Errorf("sub-two-season series: err = %v, want ErrTooShort", err)
	}
	if _, err := hw.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("forecast before fit: err = %v, want ErrNotFitted", err)
	}
	if err := hw.Fit([]float64{1, 2, 3, 4, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Forecast(0); !errors.Is(err, ErrBadHorizon) {
		t.Errorf("zero horizon: err = %v, want ErrBadHorizon", err)
	}
}

// A pure level+trend+seasonal series is Holt-Winters' model class: after
// fitting several clean cycles the multi-step forecast must continue the
// pattern closely.
func TestHoltWintersTracksTrendingSeasonal(t *testing.T) {
	const season = 8
	gen := func(i int) float64 {
		return 50 + 0.5*float64(i) + 10*math.Sin(2*math.Pi*float64(i)/season)
	}
	n := season * 12
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = gen(i)
	}
	hw := &HoltWinters{Season: season}
	if err := hw.Fit(xs); err != nil {
		t.Fatal(err)
	}
	f, err := hw.Forecast(2 * season)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		want := gen(n + i)
		if math.Abs(v-want) > 3 {
			t.Errorf("f[%d] = %.2f, want ~%.2f", i, v, want)
		}
	}
}

// The Figure-19-style backtest: a noisy diurnal cycle riding a slow growth
// trend, rolling-origin one-step evaluation. Holt-Winters must beat both
// the flat EWMA (no cycle) and the seasonal-naive baseline (no trend, full
// noise replay).
func TestHoltWintersBacktestBeatsBaselinesOnDiurnal(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const season = 48 // 5-minute windows over 4 hours, or scaled day
	n := season * 10
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 100 + 0.05*float64(i) +
			40*math.Sin(2*math.Pi*float64(i)/season) + 3*r.NormFloat64()
	}
	minTrain := season * 3
	hw, err := Backtest(&HoltWinters{Season: season}, xs, minTrain)
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := Backtest(&EWMA{Alpha: 0.4}, xs, minTrain)
	if err != nil {
		t.Fatal(err)
	}
	seasonal, err := Backtest(&SeasonalNaive{Season: season}, xs, minTrain)
	if err != nil {
		t.Fatal(err)
	}
	if hw.RMSE >= ewma.RMSE {
		t.Errorf("Holt-Winters RMSE %.3f >= EWMA %.3f on diurnal series", hw.RMSE, ewma.RMSE)
	}
	if hw.RMSE >= seasonal.RMSE {
		t.Errorf("Holt-Winters RMSE %.3f >= seasonal-naive %.3f on diurnal series", hw.RMSE, seasonal.RMSE)
	}
}
