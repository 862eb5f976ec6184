package experiments

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Extensions beyond the paper's figures, exercising the composability the
// paper claims: Section IV notes LAP's placement principle "can also be
// combined with other replacement policies, such as RRIP", and Section
// VII claims orthogonality to bit-level write-reduction schemes such as
// Flip-N-Write [21].

// ExtRRIP compares the evaluated policies under LRU and SRRIP base
// replacement. The paper's claim: LAP's selective inclusion and loop-bit
// mechanism are replacement-family agnostic, so its savings persist under
// RRIP.
func ExtRRIP(opt Options) *Table {
	t := &Table{
		ID:     "Ext. RRIP",
		Title:  "Policy EPI vs non-inclusive under LRU and SRRIP base replacement (avg over Table III mixes)",
		Header: []string{"replacement", "Exclusive", "FLEXclusion", "Dswitch", "LAP"},
		Notes: []string{
			"extension of the paper's Section IV note: LAP composes with RRIP as with LRU",
		},
	}
	for _, repl := range []cache.Replacement{cache.ReplLRU, cache.ReplRRIP} {
		cfg := sim.DefaultConfig()
		cfg.L3Replacement = repl
		pols := evaluatedPolicies(cfg, opt)
		_, _, all := avgEPIOverMixes(cfg, opt, pols)
		row := []string{repl.String()}
		for _, p := range pols {
			row = append(row, f2(all[p.Name]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ExtFlipNWrite estimates the composition of LAP with Flip-N-Write
// bit-level write reduction (Cho & Lee [21]): FNW halves the worst-case
// written bits per word, which on average scales the effective write
// energy by the measured flip fraction. The table reports LAP's EPI
// savings over non-inclusion with and without FNW-scaled write energy,
// demonstrating the orthogonality claim: both techniques' savings stack.
func ExtFlipNWrite(opt Options) *Table {
	t := &Table{
		ID:     "Ext. FNW",
		Title:  "LAP x Flip-N-Write composition: EPI savings over non-inclusive",
		Header: []string{"write-energy model", "Exclusive", "LAP"},
		Notes: []string{
			"FNW write-energy scale measured by internal/bitflip on synthetic payloads;",
			"the paper's Section VII orthogonality claim: inclusion-level and bit-level savings compose",
		},
	}
	scales := []struct {
		label string
		scale float64
	}{
		{"full-line writes (baseline)", 1.0},
		// Average Flip-N-Write energy scale for random payload updates,
		// cross-checked by bitflip's tests (~0.37 of a full-line write).
		{"Flip-N-Write coded", 0.37},
	}
	cfgFor := func(scale float64) sim.Config {
		cfg := sim.DefaultConfig()
		tech := cfg.L3Tech
		tech.WriteNJ *= scale
		return cfg.WithSTTL3(tech)
	}
	mixes := workload.TableIII()
	var batch []func()
	for _, m := range scales {
		batch = append(batch, mixRunBatch(cfgFor(m.scale), opt, mixes,
			noniPol(), exPol(), namedPolicy{"LAP", LAP(opt)})...)
	}
	warm(opt, batch)
	for _, m := range scales {
		cfg := cfgFor(m.scale)
		var exSave, lapSave float64
		for _, mix := range mixes {
			base := run(cfg, "noni", Noni(), mix, opt)
			ex := run(cfg, "ex", Ex(), mix, opt)
			lapRes := run(cfg, "LAP", LAP(opt), mix, opt)
			exSave += 1 - ratio(ex.EPI.Total(), base.EPI.Total())
			lapSave += 1 - ratio(lapRes.EPI.Total(), base.EPI.Total())
		}
		n := float64(len(mixes))
		t.AddRow(m.label, pct(exSave/n), pct(lapSave/n))
	}
	return t
}

// ExtDWB composes LAP with DASCA-style dead-write bypassing (Ahn et al.
// [34]), the second orthogonality claim of the paper's related-work
// section: "their deadblock bypassing technique ... can be combined with
// our approaches to further reduce the dynamic energy consumption".
func ExtDWB(opt Options) *Table {
	cfg := sim.DefaultConfig()
	pols := []namedPolicy{
		{"ex+DWB", registered("exclusive+DWB", core.PolicyParams{})},
		{"LAP", LAP(opt)},
		{"LAP+DWB", registered("LAP+DWB", core.PolicyParams{DuelPeriod: opt.DuelPeriod})},
	}
	t := &Table{
		ID:     "Ext. DWB",
		Title:  "Dead-write bypass composed with LAP: EPI and bypassed writes vs non-inclusive",
		Header: []string{"mix", "ex+DWB", "LAP", "LAP+DWB", "bypasses (LAP+DWB)"},
		Notes: []string{
			"the paper's [34] orthogonality claim: dead-write prediction stacks on selective inclusion;",
			"DWB wraps victim insertions, so it helps exclusive-style flows (non-inclusive victims keep LLC duplicates)",
		},
	}
	sums := make([]float64, len(pols))
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, append([]namedPolicy{noniPol()}, pols...)...)
	for _, mix := range mixes {
		base := run(cfg, "noni", Noni(), mix, opt)
		row := []string{mix.Name}
		var bypasses uint64
		for i, p := range pols {
			r := run(cfg, p.Name, p.Pol, mix, opt)
			rel := ratio(r.EPI.Total(), base.EPI.Total())
			sums[i] += rel
			row = append(row, f2(rel))
			if p.Name == "LAP+DWB" {
				bypasses = r.Met.BypassedWrites
			}
		}
		row = append(row, itoa(int(bypasses)))
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Avg"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(mixes))))
	}
	avg = append(avg, "")
	t.Rows = append(t.Rows, avg)
	return t
}
