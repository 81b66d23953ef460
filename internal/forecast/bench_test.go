package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkARIMAFit times the refit the control loop pays per class per
// period — the default ARIMA(2,0,1) on a noisy diurnal arrival-rate
// series — after one day of 5-minute periods (h=288) and after three and
// a half (h=1000): the history is unbounded, so a fit's cost must track
// its arithmetic, not an allocation per observation.
func BenchmarkARIMAFit(b *testing.B) {
	for _, h := range []int{288, 1000} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			r := rand.New(rand.NewSource(19))
			xs := make([]float64, h)
			for i := range xs {
				xs[i] = math.Max(0, 4*(1+0.5*math.Sin(2*math.Pi*float64(i)/288))+0.4*r.NormFloat64())
			}
			m, err := NewARIMA(2, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Fit(xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
