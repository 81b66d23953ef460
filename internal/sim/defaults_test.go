package sim

import (
	"reflect"
	"testing"
)

// Every documented Config default is applied by the single
// normalization point, field by field.
func TestConfigApplyDefaults(t *testing.T) {
	tests := []struct {
		name string
		in   Config
		want func(Config) bool
	}{
		{"zero RepairSeconds -> 900", Config{},
			func(c Config) bool { return c.RepairSeconds == 900 }},
		{"negative RepairSeconds -> 900", Config{RepairSeconds: -5},
			func(c Config) bool { return c.RepairSeconds == 900 }},
		{"set RepairSeconds kept", Config{RepairSeconds: 60},
			func(c Config) bool { return c.RepairSeconds == 60 }},
		{"zero FailureSeed -> 1", Config{},
			func(c Config) bool { return c.FailureSeed == 1 }},
		{"set FailureSeed kept", Config{FailureSeed: 42},
			func(c Config) bool { return c.FailureSeed == 42 }},
		{"zero FailBudgetPerQueue -> 64", Config{},
			func(Config) bool { return failBudgetPerQueue == 64 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tt.in
			cfg.applyDefaults()
			if !tt.want(cfg) {
				t.Errorf("applyDefaults(%+v) = %+v", tt.in, cfg)
			}
		})
	}
}

// Behavior-level regression: a zero field and its documented default
// must produce bit-identical runs.
func TestConfigDefaultsEquivalentRuns(t *testing.T) {
	run := func(mutate func(*Config)) *Result {
		cfg := genFailureConfig(t, 9)
		mutate(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(func(cfg *Config) {
		cfg.RepairSeconds = 0
		cfg.FailureSeed = 0
	})
	explicit := run(func(cfg *Config) {
		cfg.RepairSeconds = 900
		cfg.FailureSeed = 1
	})
	if !reflect.DeepEqual(base, explicit) {
		t.Error("zero-valued defaults and explicit defaults give different results")
	}
}
