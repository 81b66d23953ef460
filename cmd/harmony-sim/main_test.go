package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func TestRunFlagErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown policy", []string{"-policy", "magic"}, "unknown policy"},
		{"non-numeric rate", []string{"-rate", "fast"}, "invalid value"},
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined"},
		{"missing trace file", []string{"-trace", "/nonexistent/trace.jsonl"}, "no such file"},
		{"stream with trace", []string{"-stream", "-trace", "x.jsonl"}, "cannot be combined"},
		{"negative scale", []string{"-scale", "-3"}, "-scale must be at least 1"},
		{"negative hours", []string{"-hours", "-1"}, "-hours must be positive"},
		{"zero hours", []string{"-hours", "0"}, "-hours must be positive"},
		{"negative rate", []string{"-rate", "-1"}, "-rate must be positive"},
		{"negative period", []string{"-period", "-5"}, "-period must be positive"},
		{"negative horizon", []string{"-horizon", "-2"}, "-horizon must be non-negative"},
		{"heap cap exceeded", []string{"-stream", "-hours", "0.5", "-rate", "0.5", "-scale", "100",
			"-policy", "baseline", "-max-heap-mb", "0.001"}, "exceeds cap"},
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

// Non-finite -period, -hours and -rate used to hang the simulator (NaN is
// false under every "<= 0" validation, +Inf passes it) or exit 0 having
// simulated nothing. A NaN or negative -max-heap-mb used to disable the
// cap, and a NaN -sample-hours characterized the whole workload. Each is
// an error now, and a regression fails here on the timeout instead of
// hanging the suite.
func TestRunRejectsNonFiniteFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-period", "NaN"}, {"-period", "+Inf"},
		{"-hours", "NaN"}, {"-hours", "+Inf"},
		{"-rate", "NaN"}, {"-rate", "+Inf"},
		{"-max-heap-mb", "NaN"}, {"-max-heap-mb", "+Inf"}, {"-max-heap-mb", "-5"},
		{"-sample-hours", "NaN"}, {"-sample-hours", "+Inf"}, {"-sample-hours", "-1"},
	} {
		for _, mode := range [][]string{nil, {"-stream"}} {
			args := append(append([]string{"-policy", "baseline", "-hours", "0.5", "-rate", "0.3", "-scale", "200"}, mode...), bad...)
			done := make(chan error, 1)
			go func() { done <- run(args, io.Discard) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "must be finite") {
					t.Errorf("run(%v) error = %v, want a must-be-finite error", args, err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("run(%v) still running after 20 s", args)
			}
		}
	}
}

// TestRunStreamMode exercises the streaming path end to end, including
// the scale-metrics report and a generous heap cap.
func TestRunStreamMode(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-stream", "-hours", "1", "-rate", "1", "-scale", "100",
		"-policy", "baseline", "-max-heap-mb", "512"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	for _, want := range []string{"baseline results:", "scale metrics (streamed):", "tasks:", "peak heap:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stream output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunStreamCBS covers the sample-characterization path for the
// HARMONY policies in streaming mode.
func TestRunStreamCBS(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-stream", "-hours", "1.5", "-sample-hours", "1", "-rate", "0.5",
		"-scale", "100", "-policy", "cbs"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(out.String(), "characterization (1.0h sample):") {
		t.Errorf("missing sample characterization line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "harmony-CBS results:") {
		t.Errorf("missing CBS results:\n%s", out.String())
	}
}

// TestRunOmegaDefault pins the -omega flag default to the facade's: an
// unset (or 0) -omega runs ω = 1.05 like Simulate, harmonyd and
// EXPERIMENTS.md, not the ω = 1 the flag used to default to.
func TestRunOmegaDefault(t *testing.T) {
	base := []string{"-hours", "2", "-rate", "0.5", "-scale", "100", "-policy", "cbs"}
	output := func(extra ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(base[:len(base):len(base)], extra...), &out); err != nil {
			t.Fatalf("run(%v): %v", extra, err)
		}
		return out.String()
	}
	unset := output()
	if got := output("-omega", "1.05"); got != unset {
		t.Errorf("unset -omega differs from -omega 1.05:\n%s\nvs\n%s", unset, got)
	}
	if got := output("-omega", "0"); got != unset {
		t.Errorf("-omega 0 differs from the default:\n%s\nvs\n%s", unset, got)
	}
	if got := output("-omega", "1"); got == unset {
		t.Error("-omega 1 gave the default's output; the flag is not reaching the policy")
	}
}
