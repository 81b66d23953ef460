package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchSeries is a noisy diurnal arrival-rate series of n periods.
func benchSeries(n int) []float64 {
	r := rand.New(rand.NewSource(19))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Max(0, 4*(1+0.5*math.Sin(2*math.Pi*float64(i)/288))+0.4*r.NormFloat64())
	}
	return xs
}

// BenchmarkARIMAFit times a cold fit — a model that has seen nothing,
// what harmonyd's first tick after a restart or a diverged history pays —
// of the default ARIMA(2,0,1) on a noisy diurnal arrival-rate series
// after one day of 5-minute periods (h=288) and after three and a half
// (h=1000): the history is unbounded, so a fit's cost must track its
// arithmetic, not an allocation per observation.
func BenchmarkARIMAFit(b *testing.B) {
	for _, h := range []int{288, 1000} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			xs := benchSeries(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewARIMA(2, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Fit(xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkARIMAFitExtend times the refit the control loop pays per class
// per period: the class's kept model, fitted on h samples, refitted on
// h+1. Stage one adds one row to its carried sums; stage two, whose
// regressors are this fit's residuals, is still O(h), as dot products
// over the model's kept buffers.
func BenchmarkARIMAFitExtend(b *testing.B) {
	for _, h := range []int{288, 1000} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			xs := benchSeries(h + 1)
			m, err := NewARIMA(2, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Fit(xs[:h]); err != nil {
				b.Fatal(err)
			}
			rollback := keepStageOne(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rollback()
				if err := m.Fit(xs); err != nil {
					b.Fatal(err)
				}
			}
			if adds := m.stageOneAdds - (h - m.long); adds != b.N {
				b.Fatalf("%d stage-one rows added in %d extending fits", adds, b.N)
			}
		})
	}
}

// keepStageOne snapshots m's carried stage-one sums and returns a
// function that rolls them back to the snapshot (some 70 floats, noise
// beside a fit), so that every refit on one more sample extends the
// same history by one.
func keepStageOne(m *ARIMA) (rollback func()) {
	ne := m.stageOne
	xtx := make([][]float64, len(ne.xtx))
	for i, row := range ne.xtx {
		xtx[i] = append([]float64(nil), row...)
	}
	xty := append([]float64(nil), ne.xty...)
	seen := len(m.seen)
	return func() {
		for i, row := range xtx {
			copy(ne.xtx[i], row)
		}
		copy(ne.xty, xty)
		m.seen = m.seen[:seen]
	}
}
