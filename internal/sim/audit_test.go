package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// genConfig is a two-hour generated workload on 40 machines, every one
// of them powered.
func genConfig(t *testing.T, seed int64) Config {
	t.Helper()
	cfgTr := trace.DefaultConfig(seed)
	cfgTr.Horizon = 2 * trace.Hour
	cfgTr.RatePerS = 0.5
	cfgTr.Machines = []trace.MachineType{
		{ID: 1, CPU: 0.5, Mem: 0.5, Count: 30},
		{ID: 2, CPU: 1, Mem: 1, Count: 10},
	}
	tr, err := trace.Generate(cfgTr)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Source:   trace.NewSliceSource(tr),
		Models:   simModels(),
		Price:    energy.FlatPrice(0.1),
		Policy:   &staticPolicy{name: "all", target: []int{30, 10}},
		Period:   300,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
}

// Property test: across random seeds, a simulation fed by the streaming
// generator must be bit-identical to the same simulation over the
// materialized trace. This is the heart of the streaming contract — the
// engine cannot tell which mode fed it.
func TestRunStreamingMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4; trial++ {
		seed := rng.Int63()
		cfgTr := trace.DefaultConfig(seed)
		cfgTr.Horizon = 2 * trace.Hour
		cfgTr.RatePerS = 0.4 + rng.Float64()
		cfgTr.Machines = []trace.MachineType{
			{ID: 1, CPU: 0.5, Mem: 0.5, Count: 30},
			{ID: 2, CPU: 1, Mem: 1, Count: 10},
		}
		tr, err := trace.Generate(cfgTr)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{
			Models:   simModels(),
			Price:    energy.FlatPrice(0.1),
			Policy:   &staticPolicy{name: "all", target: []int{30, 10}},
			Period:   300,
			NumTypes: 1,
			TypeOf:   func(trace.Task) int { return 0 },
		}

		mat := base
		mat.Source = trace.NewSliceSource(tr)
		want, err := Run(mat)
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewGenSource(cfgTr, 1+rng.Intn(300))
		if err != nil {
			t.Fatal(err)
		}
		stream := base
		stream.Source = src
		got, err := Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("trial %d (seed=%d): streamed result differs from materialized", trial, seed)
		}
	}
}

// The used-machine series must never go negative or exceed the powered
// count.
func TestRunUsedCountWithinActive(t *testing.T) {
	res, err := Run(genConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.UsedSeries.Points {
		if p.Y < 0 {
			t.Fatalf("used series dips negative at point %d: %v", i, p.Y)
		}
		if a := res.ActiveSeries.Points[i].Y; p.Y > a {
			t.Fatalf("used %v exceeds active %v at point %d", p.Y, a, i)
		}
	}
}
