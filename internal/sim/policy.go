package sim

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
)

// Policy dispatch against the core registry. Every entry point that
// accepts a policy name — the lap facade, cmd/lapsim's -policy flag,
// lapexp's table factories, and lapserved's /v1/run and /v1/sweep
// validators — resolves it through these helpers, so canonicalisation,
// capability gating ("needs hybrid LLC"), and the
// unknown-name error text are identical everywhere.

// PolicyParams derives the configuration-dependent factory knobs for
// the registered policies. Dswitch's duel weighs an avoided LLC miss
// against an LLC write in nanojoules: a miss costs one LLC read's worth
// of re-reference plus the leakage burned over the exposed (MLP- and
// core-overlap-adjusted) memory latency.
func (c Config) PolicyParams(duelPeriod uint64) core.PolicyParams {
	tech := c.L3Tech
	leakMW := tech.LeakMWPerBank*float64(c.L3SizeBytes)/float64(energy.BankBytes) + energy.DefaultTag().LeakMW
	exposed := float64(c.MemCycles) / c.MLP / float64(c.Cores)
	missNJ := tech.ReadNJ + leakMW*1e-3*exposed/c.ClockHz*1e9
	return core.PolicyParams{
		DuelPeriod: duelPeriod,
		MissNJ:     missNJ,
		WriteNJ:    tech.WriteNJ,
	}
}

// policyIneligible explains why a registered policy cannot run under
// this configuration; "" means eligible.
func (c Config) policyIneligible(info core.PolicyInfo) string {
	if info.NeedsHybridLLC && c.L3SRAMWays == 0 {
		return "needs a hybrid LLC: set L3SRAMWays > 0"
	}
	return ""
}

// ValidatePolicy resolves a policy name against the registry under this
// configuration, returning the canonical name. Unknown names and
// policies the configuration cannot run (hybrid-only on a uniform LLC)
// return a *FieldError on
// "Policy" so every CLI error and HTTP 400 carries the same text.
func (c Config) ValidatePolicy(name string) (string, error) {
	info, ok := core.LookupPolicy(name)
	if !ok {
		return "", fieldErrf("Policy", "unknown policy %q (valid: %s; append +DWB for dead-write bypass)",
			name, strings.Join(core.PolicyNames(), ", "))
	}
	if reason := c.policyIneligible(info); reason != "" {
		return "", fieldErrf("Policy", "%s %s", info.Name, reason)
	}
	return info.Name, nil
}

// NewPolicyController validates name under this configuration and
// builds a fresh controller with the configuration-derived params.
func (c Config) NewPolicyController(name string, duelPeriod uint64) (core.Controller, error) {
	canon, err := c.ValidatePolicy(name)
	if err != nil {
		return nil, err
	}
	return core.NewPolicy(canon, c.PolicyParams(duelPeriod))
}

// ResolvePolicies parses a policy argument — a single name, a comma
// list, or "all" — under this configuration. It returns the canonical
// names in request order (registry order for "all") with duplicates
// collapsed, plus human-readable notices for policies "all" skipped as
// ineligible. Explicitly requested ineligible or unknown names are a
// *FieldError instead.
func (c Config) ResolvePolicies(arg string) (names []string, notices []string, err error) {
	if strings.EqualFold(strings.TrimSpace(arg), "all") {
		for _, info := range core.Policies() {
			if reason := c.policyIneligible(info); reason != "" {
				notices = append(notices, fmt.Sprintf("skipping %s (%s)", info.Name, reason))
				continue
			}
			names = append(names, info.Name)
		}
		return names, notices, nil
	}
	seen := make(map[string]bool)
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		canon, err := c.ValidatePolicy(tok)
		if err != nil {
			return nil, nil, err
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		names = append(names, canon)
	}
	if len(names) == 0 {
		return nil, nil, fieldErrf("Policy", "no policies named in %q", arg)
	}
	return names, notices, nil
}
