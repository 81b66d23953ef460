package classify

import (
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// BenchmarkCharacterize is the two-step characterization at the
// benchmark's sim_baseline_fleet set-up: 2 h of the default generator at
// 3 tasks/s against the full Table II cluster, seed 1, with the facade's
// MaxK and MinGain. Nearly all of it is step one's ChooseK (k = 1..12,
// four restarts each, per priority group).
func BenchmarkCharacterize(b *testing.B) {
	gen := trace.DefaultConfig(1)
	gen.Horizon = 2 * trace.Hour
	gen.RatePerS = 3
	_, gen.Machines = energy.TableIIScaled(1)
	tr, err := trace.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(tr, Config{MaxK: 12, MinGain: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
