package harmony

import (
	"reflect"
	"testing"
)

// TestSimulateStreamMatchesBatch pins that the streaming entry point is
// the same simulation as the batch one: identical workload parameters
// with exact delay CDFs must produce identical public results.
func TestSimulateStreamMatchesBatch(t *testing.T) {
	wcfg := WorkloadConfig{
		Seed:           11,
		Hours:          3,
		TasksPerSecond: 0.3,
		Cluster:        ClusterTableII,
		ClusterScale:   100,
	}
	for _, policy := range []Policy{PolicyAlwaysOn, PolicyBaseline} {
		simCfg := SimulationConfig{Policy: policy}

		w, err := GenerateWorkload(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Simulate(w, nil, simCfg)
		if err != nil {
			t.Fatalf("%v batch: %v", policy, err)
		}

		stream, metrics, err := SimulateStream(StreamConfig{
			Workload:        wcfg,
			MaxDelaySamples: -1, // exact CDFs, comparable to batch
		}, nil, simCfg)
		if err != nil {
			t.Fatalf("%v stream: %v", policy, err)
		}

		if !reflect.DeepEqual(batch, stream) {
			t.Errorf("%v: streaming result differs from batch\nbatch:  %+v\nstream: %+v",
				policy, batch, stream)
		}
		if metrics.Tasks != int64(w.NumTasks()) {
			t.Errorf("%v: metered %d tasks, workload has %d", policy, metrics.Tasks, w.NumTasks())
		}
		if metrics.TasksPerSecond <= 0 || metrics.PeakHeapBytes == 0 || metrics.BytesPerTask <= 0 {
			t.Errorf("%v: implausible scale metrics %+v", policy, metrics)
		}
	}
}

// TestSimulateStreamCBS exercises the HARMONY policy path: the
// characterization comes from a materialized sample of the same
// workload, the stream itself is never held in memory.
func TestSimulateStreamCBS(t *testing.T) {
	wcfg := WorkloadConfig{
		Seed:           11,
		Hours:          2,
		TasksPerSecond: 0.3,
		Cluster:        ClusterTableII,
		ClusterScale:   100,
	}
	w, err := GenerateWorkload(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := w.Characterize(CharacterizeConfig{Seed: wcfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := SimulateStream(StreamConfig{Workload: wcfg}, ch, SimulationConfig{Policy: PolicyCBS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled == 0 || res.Containers == nil {
		t.Errorf("CBS stream run looks empty: %+v", res)
	}
}

// TestSimulateStreamValidation covers the error paths.
func TestSimulateStreamValidation(t *testing.T) {
	if _, _, err := SimulateStream(StreamConfig{
		Workload: WorkloadConfig{Cluster: Cluster(99)},
	}, nil, SimulationConfig{Policy: PolicyAlwaysOn}); err == nil {
		t.Error("bogus cluster accepted")
	}
	if _, _, err := SimulateStream(StreamConfig{}, nil, SimulationConfig{Policy: PolicyCBS}); err == nil {
		t.Error("CBS without characterization accepted")
	}
	if _, _, err := SimulateStream(StreamConfig{}, nil, SimulationConfig{Policy: Policy(42)}); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestStreamConfigDefaults pins the default knobs.
func TestStreamConfigDefaults(t *testing.T) {
	var cfg StreamConfig
	cfg.defaults()
	if cfg.MaxDelaySamples != 100_000 {
		t.Errorf("defaults = %+v", cfg)
	}
	exact := StreamConfig{MaxDelaySamples: -1}
	exact.defaults()
	if exact.MaxDelaySamples != 0 {
		t.Errorf("MaxDelaySamples -1 should map to exact (0), got %d", exact.MaxDelaySamples)
	}
}
