package stats

import (
	"math"
	"reflect"
	"testing"
)

// Before the reservoir fills it keeps everything.
func TestReservoirKeepsPrefixUntilFull(t *testing.T) {
	rv := NewReservoir(5, 1)
	for i := 0; i < 4; i++ {
		rv.Add(float64(i))
	}
	if got, want := rv.CDF().sorted, []float64{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("prefix sample = %v, want %v", got, want)
	}
	if rv.n != 4 {
		t.Errorf("count = %d, want 4", rv.n)
	}
}

// Equal seeds and input sequences must retain bit-identical samples.
func TestReservoirDeterministic(t *testing.T) {
	a, b := NewReservoir(64, 7), NewReservoir(64, 7)
	for i := 0; i < 10000; i++ {
		x := float64(i) * 1.5
		a.Add(x)
		b.Add(x)
	}
	if !reflect.DeepEqual(a.CDF().sorted, b.CDF().sorted) {
		t.Error("same seed and stream retained different samples")
	}
	c := NewReservoir(64, 8)
	for i := 0; i < 10000; i++ {
		c.Add(float64(i) * 1.5)
	}
	if reflect.DeepEqual(a.CDF().sorted, c.CDF().sorted) {
		t.Error("different seeds retained identical samples (suspicious)")
	}
}

// The retained sample approximates the stream's distribution: the mean
// of a uniform 0..N-1 stream should land near N/2.
func TestReservoirUnbiasedMean(t *testing.T) {
	const n = 200000
	rv := NewReservoir(2000, 3)
	for i := 0; i < n; i++ {
		rv.Add(float64(i))
	}
	sample := rv.CDF().sorted
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	mean := sum / float64(len(sample))
	if want := float64(n) / 2; math.Abs(mean-want)/want > 0.05 {
		t.Errorf("sample mean %.0f, want within 5%% of %.0f", mean, want)
	}
	if rv.n != n {
		t.Errorf("count = %d, want %d", rv.n, n)
	}
}

// Post-fill adds must not allocate: the reservoir backs the simulator's
// hot path.
func TestReservoirSteadyStateAllocFree(t *testing.T) {
	rv := NewReservoir(128, 9)
	for i := 0; i < 256; i++ {
		rv.Add(float64(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			rv.Add(float64(i))
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Add allocates %.0f objects per run, want 0", allocs)
	}
}
