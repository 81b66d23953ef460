package trace

import "testing"

// BenchmarkGenerate materializes a day of the default generator at the
// online workloads' 2.5 tasks/s (about 360k tasks): the draws and
// Collect's buffers.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Horizon = Day
	cfg.RatePerS = 2.5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
