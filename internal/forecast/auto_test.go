package forecast

import (
	"math"
	"math/rand"
	"testing"
)

func TestSeasonalNaive(t *testing.T) {
	s := &SeasonalNaive{Season: 4}
	if err := s.Fit([]float64{1, 2}); err == nil {
		t.Error("short series accepted")
	}
	if err := s.Fit([]float64{9, 9, 9, 9, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f, err := s.Forecast(6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 1, 2}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("f[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	var unfit SeasonalNaive
	unfit.Season = 2
	if _, err := unfit.Forecast(1); err == nil {
		t.Error("forecast before fit accepted")
	}
	bad := &SeasonalNaive{}
	if err := bad.Fit([]float64{1, 2, 3}); err == nil {
		t.Error("zero season accepted")
	}
}

func TestSeasonalNaiveBeatsNaiveOnDiurnal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const season = 48
	n := season * 10
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 100 + 50*math.Sin(2*math.Pi*float64(i)/season) + 2*r.NormFloat64()
	}
	seasonal, err := Backtest(&SeasonalNaive{Season: season}, xs, season*5)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Backtest(&Naive{}, xs, season*5)
	if err != nil {
		t.Fatal(err)
	}
	if seasonal.RMSE >= naive.RMSE {
		t.Errorf("seasonal RMSE %v >= naive %v on diurnal series", seasonal.RMSE, naive.RMSE)
	}
}

func TestAutoARIMASelectsReasonableOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n := 800
	xs := make([]float64, n)
	xs[0] = 10
	for i := 1; i < n; i++ {
		xs[i] = 3 + 0.7*xs[i-1] + r.NormFloat64()
	}
	a := &AutoARIMA{}
	if err := a.Fit(xs); err != nil {
		t.Fatal(err)
	}
	p, d, q := a.chosen.P, a.chosen.D, a.chosen.Q
	if p == 0 && q == 0 {
		t.Error("degenerate order selected")
	}
	if d != 0 {
		t.Errorf("d = %d for a stationary series, want 0", d)
	}
	f, err := a.Forecast(10)
	if err != nil {
		t.Fatal(err)
	}
	mean := 3.0 / (1 - 0.7)
	if math.Abs(f[9]-mean) > 3 {
		t.Errorf("forecast tail %v far from process mean %v", f[9], mean)
	}
}

func TestAutoARIMATrendPrefersDifferencing(t *testing.T) {
	n := 400
	xs := make([]float64, n)
	r := rand.New(rand.NewSource(9))
	for i := range xs {
		xs[i] = 5*float64(i) + r.NormFloat64()
	}
	a := &AutoARIMA{}
	if err := a.Fit(xs); err != nil {
		t.Fatal(err)
	}
	f, err := a.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the chosen order, the forecast must continue the trend.
	for i, v := range f {
		want := 5 * float64(n+i)
		if math.Abs(v-want) > 50 {
			t.Errorf("f[%d] = %v, want ~%v", i, v, want)
		}
	}
}

func TestAutoARIMAErrors(t *testing.T) {
	a := &AutoARIMA{}
	if _, err := a.Forecast(1); err == nil {
		t.Error("forecast before fit accepted")
	}
	if err := a.Fit([]float64{1, 2, 3}); err == nil {
		t.Error("tiny series accepted")
	}
}
