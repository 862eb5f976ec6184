package sim

import "testing"

// TestConfigIdentities pins the one rule every memo and checkpoint key
// is built from: a host-execution field leaves the run identity
// unchanged, and a result-changing field changes it.
func TestConfigIdentities(t *testing.T) {
	base := DefaultConfig()
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		sameRun bool
	}{
		{"CheckpointEvery", func(c *Config) { c.CheckpointEvery = 5000 }, true},
		{"WarmupAccessesPerCore", func(c *Config) { c.WarmupAccessesPerCore = 1000 }, false},
		{"Cores", func(c *Config) { c.Cores = 2 }, false},
	} {
		cfg := base
		tc.set(&cfg)
		if got := cfg.RunIdentity() == base.RunIdentity(); got != tc.sameRun {
			t.Errorf("%s: run identity unchanged = %v, want %v", tc.name, got, tc.sameRun)
		}
	}
}
