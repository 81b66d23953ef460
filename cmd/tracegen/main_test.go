package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harmony/internal/trace"
)

func TestRunFlagErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown format", []string{"-hours", "0.05", "-format", "xml"}, "unknown format"},
		{"non-numeric rate", []string{"-rate", "fast"}, "invalid value"},
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined"},
		{"missing inspect file", []string{"-inspect", "/nonexistent/trace.jsonl"}, "no such file"},
		{"negative machines", []string{"-hours", "0.05", "-machines", "-5"}, "-machines must be at least 1"},
		{"negative scale", []string{"-hours", "0.05", "-scale", "-2"}, "-scale must be 0 (off) or positive"},
		{"bad output dir", []string{"-hours", "0.05", "-o", "/nonexistent/dir/t.jsonl"}, "no such file"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) accepted", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tt.args, err, tt.want)
			}
		})
	}
}

// TestRunStreamMatchesBatch pins that -stream changes only the header's
// task count (unknown up front), never the tasks: both modes must emit
// byte-identical task lines for the same seed.
func TestRunStreamMatchesBatch(t *testing.T) {
	args := []string{"-seed", "7", "-hours", "0.3", "-rate", "0.6", "-machines", "60"}
	var batch, stream bytes.Buffer
	if err := run(args, &batch); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-stream", "-chunk", "5"}, args...), &stream); err != nil {
		t.Fatal(err)
	}
	bLines := strings.Split(batch.String(), "\n")
	sLines := strings.Split(stream.String(), "\n")
	if len(bLines) != len(sLines) {
		t.Fatalf("batch %d lines, stream %d lines", len(bLines), len(sLines))
	}
	if !strings.Contains(bLines[0], `"tasks":`) || !strings.Contains(sLines[0], `"tasks":-1`) {
		t.Errorf("headers: batch %q, stream %q", bLines[0], sLines[0])
	}
	for i := 1; i < len(bLines); i++ {
		if bLines[i] != sLines[i] {
			t.Fatalf("line %d differs:\nbatch:  %s\nstream: %s", i, bLines[i], sLines[i])
		}
	}
}

// TestRunScaleFlag pins the Google-scale divisor: -scale N selects
// 12000/N machines regardless of -machines.
func TestRunScaleFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-hours", "0.02", "-machines", "7", "-scale", "100"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var header struct {
		Machines []struct {
			Count int `json:"count"`
		} `json:"machines"`
	}
	line := strings.SplitN(out.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &header); err != nil {
		t.Fatalf("parse header %q: %v", line, err)
	}
	total := 0
	for _, m := range header.Machines {
		total += m.Count
	}
	want := 0
	for _, m := range trace.GoogleLikeMachines(12000 / 100) {
		want += m.Count
	}
	if total != want {
		t.Errorf("scale 100 should give the 12000/100-machine population (%d), got %d", want, total)
	}
}

// TestRunGoldenOutput regenerates a small trace and compares it to the
// committed golden file, byte for byte.
func TestRunGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "3", "-hours", "0.1", "-rate", "0.5", "-machines", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.jsonl")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with: go run . -seed 3 -hours 0.1 -rate 0.5 -machines 40 -o %s): %v", golden, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s — the generator or writer changed; regenerate the golden if intended", golden)
	}
}

// TestRunInspectRoundTrip writes a trace to disk and inspects it.
func TestRunInspectRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := run([]string{"-seed", "5", "-hours", "0.3", "-rate", "0.5", "-machines", "50", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-inspect", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tasks:", "machines:", "horizon:", "production"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}
}
