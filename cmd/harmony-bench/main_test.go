package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"missing exp", nil, "missing -exp"},
		{"unknown exp", []string{"-exp", "fig999"}, "unknown experiment"},
		{"unknown exp among all ids", []string{"-exp", "nope"}, "unknown experiment"},
		{"unknown cluster", []string{"-exp", "fig9", "-cluster", "azure"}, "unknown cluster"},
		// -parallel is gone (experiments run in input order, sharing one
		// Env): every spelling of it is an undefined flag.
		{"removed parallel flag", []string{"-exp", "fig9", "-parallel", "2"}, "flag provided but not defined: -parallel"},
		{"zero parallel", []string{"-exp", "fig9", "-parallel", "0"}, "flag provided but not defined"},
		{"negative parallel", []string{"-exp", "fig9", "-parallel", "-3"}, "flag provided but not defined"},
		{"non-numeric parallel", []string{"-exp", "fig9", "-parallel", "lots"}, "flag provided but not defined"},
		{"undefined flag", []string{"-exp", "fig9", "-bogus"}, "flag provided but not defined"},
		{"bad golden mode", []string{"-exp", "fig9", "-golden", "verify"}, "invalid -golden"},
		{"unknown id in list", []string{"-exp", "fig9,fig999"}, "unknown experiment"},
		{"only commas", []string{"-exp", ",,"}, "missing -exp"},
		{"unwritable cpuprofile", []string{"-list", "-cpuprofile", "/nonexistent-dir/cpu.prof"}, "-cpuprofile"},
		{"negative hours", []string{"-exp", "fig9", "-hours", "-1"}, "-hours must be positive"},
		{"zero rate", []string{"-exp", "fig9", "-rate", "0"}, "-rate must be positive"},
		{"zero scale", []string{"-exp", "fig9", "-scale", "0"}, "-scale must be at least 1"},
		{"negative scale", []string{"-exp", "fig9", "-scale", "-3"}, "-scale must be at least 1"},
		{"unwritable memprofile", []string{"-list", "-memprofile", "/nonexistent-dir/mem.prof"}, "-memprofile"},
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

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1", "fig26"} {
		if !strings.Contains(b.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

// Comma-separated ids run in input order, like separate invocations.
func TestRunCommaSeparatedExperiments(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "fig1, fig9"}, &b); err != nil {
		t.Fatal(err)
	}
	i1 := strings.Index(b.String(), "fig1")
	i9 := strings.Index(b.String(), "fig9")
	if i1 < 0 || i9 < 0 || i9 < i1 {
		t.Errorf("expected fig1 before fig9 in output:\n%s", b.String())
	}
}

func TestGoldenWriteCheckRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "golden")
	var b strings.Builder
	if err := run([]string{"-exp", "fig1,fig9", "-golden", "write", "-golden-dir", dir}, &b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1", "fig9"} {
		if _, err := os.Stat(filepath.Join(dir, id+".txt")); err != nil {
			t.Errorf("golden file for %s not written: %v", id, err)
		}
	}

	// Unchanged inputs pass the check.
	b.Reset()
	if err := run([]string{"-exp", "fig1,fig9", "-golden", "check", "-golden-dir", dir}, &b); err != nil {
		t.Fatalf("check after write: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "fig1 ok") || !strings.Contains(b.String(), "fig9 ok") {
		t.Errorf("check output: %s", b.String())
	}

	// A tampered golden fails the check and names the experiment.
	tampered := filepath.Join(dir, "fig9.txt")
	if err := os.WriteFile(tampered, []byte("stale rendering\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	err := run([]string{"-exp", "fig1,fig9", "-golden", "check", "-golden-dir", dir}, &b)
	if err == nil || !strings.Contains(err.Error(), "fig9") {
		t.Fatalf("tampered golden not caught: err=%v\n%s", err, b.String())
	}
	if strings.Contains(err.Error(), "fig1,") {
		t.Errorf("untampered fig1 flagged: %v", err)
	}

	// A missing golden is an error, not a silent pass.
	if err := os.Remove(tampered); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig9", "-golden", "check", "-golden-dir", dir}, io.Discard); err == nil {
		t.Error("missing golden file passed the check")
	}
}

// TestProfileFlags exercises the pprof hooks on a cheap mode: both
// profile files must exist and be non-empty afterwards.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"-list", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestCommittedGoldens guards the repository's own golden files: every
// experiment, the simulation-backed ones included, must reproduce its
// golden exactly at the default operating point (≈ 3 s).
func TestCommittedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment regeneration in -short mode")
	}
	var b strings.Builder
	if err := run([]string{"-exp", "all", "-golden", "check"}, &b); err != nil {
		t.Fatalf("committed goldens stale: %v\n%s", err, b.String())
	}
}
