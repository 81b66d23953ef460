package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{5}, want: 5},
		{name: "pair", give: []float64{1, 3}, want: 2},
		{name: "negatives", give: []float64{-2, 2, -4, 4}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Max(nil); err == nil {
		t.Error("Max(nil) should error")
	}
	xs := []float64{3, -1, 7, 0}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v; want 7, nil", mx, err)
	}
}

func TestCoefVar(t *testing.T) {
	if got := SquaredCV([]float64{0, 0}); got != 0 {
		t.Errorf("SquaredCV of zeros = %v, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got := SquaredCV(xs); !almostEq(got, 0.16, 1e-12) {
		t.Errorf("SquaredCV = %v, want 0.16", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(empty) should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(xs, math.NaN()); err == nil {
		t.Error("Percentile(NaN) should error")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 5, 1e-12) {
		t.Errorf("Percentile(50) of {0,10} = %v, want 5", got)
	}
}

// Property: variance is translation-invariant and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Keep values bounded so float error stays small.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e3))
		}
		if len(xs) == 0 {
			return true
		}
		shift = math.Mod(shift, 1e3)
		if math.IsNaN(shift) {
			shift = 0
		}
		v := Variance(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		return almostEq(Variance(shifted), v, 1e-6*(1+v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		mx, _ := Max(xs)
		mn := xs[0]
		for _, x := range xs {
			mn = math.Min(mn, x)
		}
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
