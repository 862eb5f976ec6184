package experiments

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Hybrid SRAM/STT-RAM LLC experiments (Section VI-E): Figure 24 compares
// all policies on the hybrid LLC; Figure 25 ablates the Lhybrid stages.

// Fig24 reports hybrid-LLC EPI normalised to non-inclusive.
func Fig24(opt Options) *Table {
	cfg := sim.DefaultConfig().WithHybridL3()
	pols := append(evaluatedPolicies(cfg, opt), namedPolicy{"Lhybrid", Lhybrid(opt)})
	t := &Table{
		ID:     "Fig. 24",
		Title:  "Hybrid 2MB SRAM + 6MB STT-RAM LLC: EPI normalised to non-inclusive",
		Header: []string{"mix", "Exclusive", "FLEXclusion", "Dswitch", "LAP", "Lhybrid"},
		Notes: []string{
			"paper shape: LAP saves ~15%/~8% vs noni/ex; Lhybrid ~22%/~15% (up to 50%/41%)",
		},
	}
	t.Rows = append(t.Rows, policyMixRows(cfg, opt, pols)...)
	return t
}

// policyMixRows runs every (Table III mix, policy) pair under cfg —
// warmed through the parallel scheduler, collected in mix order — and
// returns one row per mix plus a trailing average row, each cell the
// policy's EPI normalised to the mix's non-inclusive baseline.
func policyMixRows(cfg sim.Config, opt Options, pols []namedPolicy) [][]string {
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, append([]namedPolicy{noniPol()}, pols...)...)
	var rows [][]string
	sums := make([]float64, len(pols))
	for _, mix := range mixes {
		base := run(cfg, "noni", Noni(), mix, opt)
		row := []string{mix.Name}
		for i, p := range pols {
			r := run(cfg, p.Name, p.Pol, mix, opt)
			rel := ratio(r.EPI.Total(), base.EPI.Total())
			sums[i] += rel
			row = append(row, f2(rel))
		}
		rows = append(rows, row)
	}
	avg := []string{"Avg"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(mixes))))
	}
	return append(rows, avg)
}

// Fig25 ablates Lhybrid's placement stages on the hybrid LLC.
func Fig25(opt Options) *Table {
	cfg := sim.DefaultConfig().WithHybridL3()
	pols := []namedPolicy{
		{"LAP", LAP(opt)},
		{"LAP+Winv", HybridStage(opt, true, false, false)},
		{"LAP+LoopSTT", HybridStage(opt, false, true, false)},
		{"LAP+NloopSRAM", HybridStage(opt, false, false, true)},
		{"Lhybrid", Lhybrid(opt)},
	}
	t := &Table{
		ID:     "Fig. 25",
		Title:  "Lhybrid placement-stage ablation on the hybrid LLC: EPI normalised to non-inclusive",
		Header: []string{"mix", "LAP", "LAP+Winv", "LAP+LoopSTT", "LAP+NloopSRAM", "Lhybrid"},
		Notes: []string{
			"paper shape: each stage helps a little; combined Lhybrid is ~7% better than plain LAP",
		},
	}
	t.Rows = append(t.Rows, policyMixRows(cfg, opt, pols)...)
	return t
}
