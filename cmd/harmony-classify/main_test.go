package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harmony/internal/classify"
	"harmony/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden output file")

// writeTestTrace generates a small deterministic trace and writes it in
// the tracegen JSON-lines format.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	cfg := trace.DefaultConfig(11)
	cfg.Horizon = trace.Hour / 2
	cfg.RatePerS = 2
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlagErrors(t *testing.T) {
	tracePath := writeTestTrace(t)
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"missing trace", nil, "missing -trace"},
		{"bad flag value", []string{"-max-classes", "many"}, "invalid value"},
		{"missing trace file", []string{"-trace", "/does/not/exist.jsonl"}, "no such file"},
		{"NaN elbow gain", []string{"-trace", tracePath, "-elbow-gain", "NaN"}, "MinGain is NaN"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestRunGoldenOutput(t *testing.T) {
	tracePath := writeTestTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-trace", tracePath, "-seed", "3", "-max-classes", "4", "-v"}, &out); err != nil {
		t.Fatal(err)
	}

	const goldenPath = "testdata/golden_output.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("output differs from %s (regenerate with -update):\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, out.Bytes(), golden)
	}
}

func TestRunSavesLoadableCharacterization(t *testing.T) {
	tracePath := writeTestTrace(t)
	charPath := filepath.Join(t.TempDir(), "char.json")
	var out bytes.Buffer
	if err := run([]string{"-trace", tracePath, "-seed", "3", "-o", charPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "characterization saved to") {
		t.Errorf("missing save confirmation in output:\n%s", out.String())
	}

	f, err := os.Open(charPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ch, err := classify.Load(f)
	if err != nil {
		t.Fatalf("saved characterization does not load: %v", err)
	}
	if len(ch.Classes) == 0 || len(ch.TaskTypes()) == 0 {
		t.Errorf("loaded characterization empty: %d classes", len(ch.Classes))
	}
	// The loaded characterization must label tasks from every group that
	// has classes.
	task := trace.Task{ID: 1, Duration: 60, CPU: 0.02, Mem: 0.02, Priority: 0}
	if id := ch.Label(task); id < 0 {
		t.Error("loaded characterization cannot label a gratis task")
	}
}
