package sim

import "testing"

// TestConfigIdentities pins the one rule every memo, checkpoint and
// profile key is built from: a host-execution field leaves both
// identities unchanged, the replay-shaping sampling knobs leave only the
// profile identity unchanged, and a result-changing field changes both.
func TestConfigIdentities(t *testing.T) {
	base := DefaultConfig()
	base.SampleInterval = 1000
	for _, tc := range []struct {
		name                 string
		set                  func(*Config)
		sameRun, sameProfile bool
	}{
		{"CheckpointEvery", func(c *Config) { c.CheckpointEvery = 5000 }, true, true},
		{"SampleClusters", func(c *Config) { c.SampleClusters = 4 }, false, true},
		{"SampleWarmup", func(c *Config) { c.SampleWarmup = 2 }, false, true},
		{"SampleInterval", func(c *Config) { c.SampleInterval = 2000 }, false, false},
		{"Cores", func(c *Config) { c.Cores = 2 }, false, false},
	} {
		cfg := base
		tc.set(&cfg)
		if got := cfg.RunIdentity() == base.RunIdentity(); got != tc.sameRun {
			t.Errorf("%s: run identity unchanged = %v, want %v", tc.name, got, tc.sameRun)
		}
		if got := cfg.ProfileIdentity() == base.ProfileIdentity(); got != tc.sameProfile {
			t.Errorf("%s: profile identity unchanged = %v, want %v", tc.name, got, tc.sameProfile)
		}
	}
}
