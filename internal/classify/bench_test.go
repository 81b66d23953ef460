package classify

import (
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// setupTrace is the benchmark's sim_baseline_fleet set-up trace cut at the
// given hours: the default generator at 3 tasks/s against the full
// Table II cluster, seed 1.
func setupTrace(tb testing.TB, hours float64) *trace.Trace {
	gen := trace.DefaultConfig(1)
	gen.Horizon = hours * trace.Hour
	gen.RatePerS = 3
	_, gen.Machines = energy.TableIIScaled(1)
	tr, err := trace.Generate(gen)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkCharacterize is the two-step characterization at the
// benchmark's sim_baseline_fleet set-up: 2 h of trace (39,341 tasks,
// 2,582 distinct (group, CPU, mem) shapes) with the facade's MaxK and
// MinGain. Nearly all of it is K-means: step one's ChooseK (k = 1..12,
// four restarts each, per priority group) and step two's k = 2 split of
// each class's log durations, of which about 4 % repeat. Since the kernel
// clusters distinct points, the largest share is what must stay O(n) for
// the bits: re-summing moved clusters in input order (about 40 %), then
// the bounded assignment pass (about 20 %) and k-means++'s cumulative D²
// (about 15 %).
func BenchmarkCharacterize(b *testing.B) {
	tr := setupTrace(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(tr, Config{MaxK: 12, MinGain: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCharacterizeAllocs is the characterization's allocation lid: it
// allocates per group, per class and per k tried, never per task. At 1 h
// and 2 h of the set-up trace (18,726 and 39,341 tasks; 36 and 35
// classes) a run allocates about 60 and 65 times per class: the buffers
// grown by append (a group's pairs and tasks, a cluster's members, a
// class's short and long durations) take about log₂ of their length, so
// doubling the trace adds about one per buffer. One allocation per task
// would add over five hundred per class.
func TestCharacterizeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two characterizations in -short mode")
	}
	var perClass [2]float64
	for i, hours := range []float64{1, 2} {
		tr := setupTrace(t, hours)
		var ch *Characterization
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			if ch, err = Characterize(tr, Config{MaxK: 12, MinGain: 0.05, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
		perClass[i] = allocs / float64(len(ch.Classes))
		t.Logf("%v h: %d tasks, %d classes, %v allocs", hours, len(tr.Tasks), len(ch.Classes), allocs)
	}
	if perClass[0] > 72 || perClass[1] > perClass[0]+8 {
		t.Errorf("allocations per class: %.1f at 1 h, %.1f at 2 h; want at most 72, and 2 h within 8 of 1 h", perClass[0], perClass[1])
	}
}
