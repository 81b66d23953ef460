package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{3, 0.9986501019683699},
	}
	for _, tt := range tests {
		if got := NormalCDF(tt.x); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.99, 2.326347874040841},
		{0.05, -1.6448536269514722},
		{0.001, -3.090232306167813},
	}
	for _, tt := range tests {
		if got := NormalQuantile(tt.p); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestNormalQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) {
		t.Error("NormalQuantile(-0.1) should be NaN")
	}
	if !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("NormalQuantile(1.1) should be NaN")
	}
}

// Property: quantile inverts the CDF across the useful range.
func TestNormalQuantileInvertsCDF(t *testing.T) {
	for p := 1e-6; p < 1; p += 0.001 {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEq(got, p, 1e-10) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

// Property: quantile is monotone increasing.
func TestNormalQuantileMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa == 0 || pb == 0 || math.IsNaN(pa) || math.IsNaN(pb) {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return NormalQuantile(pa) <= NormalQuantile(pb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
