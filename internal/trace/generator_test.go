package trace

import (
	"math"
	"testing"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Horizon = 6 * Hour
	cfg.RatePerS = 2
	return cfg
}

func TestGenerateValidates(t *testing.T) {
	tr, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if len(tr.Tasks) < 1000 {
		t.Fatalf("too few tasks generated: %d", len(tr.Tasks))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(smallConfig(1))
	b, _ := Generate(smallConfig(2))
	if len(a.Tasks) == len(b.Tasks) {
		same := true
		for i := range a.Tasks {
			if a.Tasks[i] != b.Tasks[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"zero rate", func(c *Config) { c.RatePerS = 0 }},
		{"NaN horizon", func(c *Config) { c.Horizon = math.NaN() }},
		{"infinite horizon", func(c *Config) { c.Horizon = math.Inf(1) }},
		{"NaN rate", func(c *Config) { c.RatePerS = math.NaN() }},
		{"infinite rate", func(c *Config) { c.RatePerS = math.Inf(1) }},
		{"no machines", func(c *Config) { c.Machines = nil }},
		// What GoogleLikeMachines(-5) rounds to; the trace readers reject it.
		{"negative machine count", func(c *Config) {
			c.Machines = []MachineType{{ID: 1, CPU: 0.5, Mem: 0.5, Count: -3}}
		}},
		{"negative share", func(c *Config) { c.Groups[0].Share = -1 }},
		{"zero shares", func(c *Config) {
			for i := range c.Groups {
				c.Groups[i].Share = 0
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig(1)
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGenerateGroupShares(t *testing.T) {
	tr, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := GroupCounts(tr)
	total := len(tr.Tasks)
	gratisFrac := float64(counts[Gratis]) / float64(total)
	prodFrac := float64(counts[Production]) / float64(total)
	if gratisFrac < 0.45 || gratisFrac > 0.65 {
		t.Errorf("gratis share = %v, want ~0.55", gratisFrac)
	}
	if prodFrac < 0.03 || prodFrac > 0.12 {
		t.Errorf("production share = %v, want ~0.07", prodFrac)
	}
}

// The paper: task sizes span several orders of magnitude, and >50% of tasks
// are short (< 100 s).
func TestGenerateHeterogeneityProperties(t *testing.T) {
	tr, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	minCPU, maxCPU := math.Inf(1), 0.0
	short := 0
	for _, task := range tr.Tasks {
		if task.CPU < minCPU {
			minCPU = task.CPU
		}
		if task.CPU > maxCPU {
			maxCPU = task.CPU
		}
		if task.Duration < 100 {
			short++
		}
	}
	if ratio := maxCPU / minCPU; ratio < 100 {
		t.Errorf("CPU size ratio = %v, want >= 100 (orders of magnitude)", ratio)
	}
	if frac := float64(short) / float64(len(tr.Tasks)); frac < 0.5 {
		t.Errorf("short-task fraction = %v, want > 0.5", frac)
	}
}

// Gratis group contains the exact atom (0.0125, 0.0159) with substantial mass.
func TestGenerateGratisAtom(t *testing.T) {
	tr, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	gratis, atom := 0, 0
	for _, task := range tr.Tasks {
		if task.Group() != Gratis {
			continue
		}
		gratis++
		if task.CPU == 0.0125 && task.Mem == 0.0159 {
			atom++
		}
	}
	if gratis == 0 {
		t.Fatal("no gratis tasks")
	}
	frac := float64(atom) / float64(gratis)
	if frac < 0.35 || frac > 0.5 {
		t.Errorf("atom fraction = %v, want ~0.43", frac)
	}
}

// Production durations reach past the gratis maximum; production group has
// long-running tasks (paper: up to 17 days).
func TestGenerateDurationsByGroup(t *testing.T) {
	cfg := smallConfig(6)
	cfg.Horizon = 12 * Hour
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxDur := map[PriorityGroup]float64{}
	for _, task := range tr.Tasks {
		if task.Duration > maxDur[task.Group()] {
			maxDur[task.Group()] = task.Duration
		}
	}
	if maxDur[Gratis] > 10*Hour {
		t.Errorf("gratis max duration %v exceeds configured 10h cap", maxDur[Gratis])
	}
	if maxDur[Production] <= 10*Hour {
		t.Errorf("production max duration = %v, want > 10h tail", maxDur[Production])
	}
}

func TestGoogleLikeMachines(t *testing.T) {
	ms := GoogleLikeMachines(1200)
	if len(ms) != 10 {
		t.Fatalf("machine types = %d, want 10", len(ms))
	}
	total := 0
	for _, m := range ms {
		if m.Count < 1 {
			t.Errorf("type %d has count %d", m.ID, m.Count)
		}
		total += m.Count
	}
	if total < 1100 || total > 1300 {
		t.Errorf("total machines = %d, want ~1200", total)
	}
	// Type 1 dominates (>50% of population), echoing Figure 5.
	if frac := float64(ms[0].Count) / float64(total); frac < 0.45 {
		t.Errorf("type-1 fraction = %v, want > 0.45", frac)
	}
}

func TestGenerateConstraints(t *testing.T) {
	cfg := smallConfig(13)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	platforms := make(map[string]bool, len(cfg.Machines))
	for _, m := range cfg.Machines {
		platforms[m.Platform] = true
	}
	constrained := 0
	for _, task := range tr.Tasks {
		if task.Constraint == "" {
			continue
		}
		constrained++
		if !platforms[task.Constraint] {
			t.Fatalf("task %d constrained to unknown platform %q", task.ID, task.Constraint)
		}
	}
	frac := float64(constrained) / float64(len(tr.Tasks))
	// Job-level constraint fractions of 1-3% yield a few percent of tasks.
	if frac == 0 {
		t.Error("no constrained tasks generated")
	}
	if frac > 0.15 {
		t.Errorf("constrained fraction = %v, want small", frac)
	}
}
