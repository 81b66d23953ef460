package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

func genFailureConfig(t *testing.T, seed int64) Config {
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
		Source:    trace.NewSliceSource(tr),
		Models:    simModels(),
		Price:     energy.FlatPrice(0.1),
		Policy:    &staticPolicy{name: "all", target: []int{30, 10}},
		Period:    300,
		NumTypes:  1,
		TypeOf:    func(trace.Task) int { return 0 },
		MTBFHours: 1,
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

// Under aggressive failure injection (machines failing repeatedly while
// stale heap entries from earlier failures are still queued) the
// accounting invariants must hold: every task is scheduled or
// unscheduled exactly once, and each placement contributes exactly one
// delay sample. The pre-fix simulator double-requeued tasks whose
// machine failed twice, which breaks both.
func TestRunFailureAccountingInvariants(t *testing.T) {
	cfg := genFailureConfig(t, 11)
	cfg.MTBFHours = 0.25 // one failure per machine-hour of uptime, many repeats
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int(cfg.Source.Meta().Tasks)
	if res.Failures == 0 || res.TasksKilled == 0 {
		t.Fatalf("stress run injected no failures (failures=%d killed=%d)",
			res.Failures, res.TasksKilled)
	}
	if res.Scheduled+res.Unscheduled != n {
		t.Errorf("scheduled %d + unscheduled %d != tasks %d",
			res.Scheduled, res.Unscheduled, n)
	}
	if res.Completed > res.Scheduled {
		t.Errorf("completed %d > scheduled %d", res.Completed, res.Scheduled)
	}
	samples := 0
	for _, g := range trace.Groups() {
		samples += res.DelayByGroup[g].Len()
	}
	if want := n + res.TasksKilled; samples != want {
		t.Errorf("delay samples %d != tasks %d + killed %d",
			samples, n, res.TasksKilled)
	}
}

// The used-machine series must never go negative or exceed the powered
// count, even when failures take loaded machines down (the pre-fix
// simulator leaked the used count on failure).
func TestRunUsedCountSaneUnderFailures(t *testing.T) {
	res, err := Run(genFailureConfig(t, 5))
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
