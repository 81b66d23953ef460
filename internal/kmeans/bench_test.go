package kmeans

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkRunDistinct1D is step two's shape: one class's log durations,
// 13,000 distinct 1-D points drawn around a short and a long mode, split
// with k = 2 and four restarts. No point repeats, so it measures what
// collapsing duplicates costs when there are none.
func BenchmarkRunDistinct1D(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xy := make([]float64, 0, 2*13000)
	for i := 0; i < 13000; i++ {
		mode := math.Log(60)
		if i%5 == 0 {
			mode = math.Log(3600)
		}
		xy = append(xy, mode+r.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(xy, Config{K: 2, Seed: 1, Restarts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
