package experiments

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// ExtSTT runs the ROADMAP's STT-RAM competitor policies head-to-head
// against LAP on the Table II STT-RAM LLC: the reuse-detection fill
// bypass (arXiv 2402.00533) and the reuse-distance-gated copy-back of
// clean lines (arXiv 2105.14442). Both attack the same write-energy
// problem LAP does, from opposite ends — the reuse detector filters
// fills entering a non-inclusive LLC, the copy-back filter drops clean
// victims leaving an exclusive one — so the interesting comparison is
// EPI and miss rate per mix, both normalised to non-inclusive.
func ExtSTT(opt Options) *Table {
	cfg := sim.DefaultConfig()
	pols := []namedPolicy{
		{"LAP", LAP(opt)},
		{"reuse-detector", ReuseDetector()},
		{"rd-copyback", RDCopyback()},
	}
	t := &Table{
		ID:    "Ext. STT",
		Title: "STT-RAM competitor policies vs LAP: EPI and MPKI normalised to non-inclusive",
		Header: []string{"mix", "LAP", "reuse-det", "rd-copyback",
			"LAP miss", "reuse-det miss", "rd-copyback miss"},
		Notes: []string{
			"reuse-detector gates fills on a second LLC touch (write-filter on the fill path);",
			"rd-copyback drops clean copy-backs whose reuse distance exceeds the LLC capacity (write-filter on the victim path);",
			"both trade extra misses for fewer STT-RAM writes — LAP's loop-block signal keeps the miss side flat",
		},
	}
	epiSums := make([]float64, len(pols))
	missSums := make([]float64, len(pols))
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, append([]namedPolicy{noniPol()}, pols...)...)
	for _, mix := range mixes {
		base := run(cfg, "noni", Noni(), mix, opt)
		row := []string{mix.Name}
		miss := make([]string, 0, len(pols))
		for i, p := range pols {
			r := run(cfg, p.Name, p.Pol, mix, opt)
			epi := ratio(r.EPI.Total(), base.EPI.Total())
			mpki := ratio(r.Met.MPKI(), base.Met.MPKI())
			epiSums[i] += epi
			missSums[i] += mpki
			row = append(row, f2(epi))
			miss = append(miss, f2(mpki))
		}
		t.Rows = append(t.Rows, append(row, miss...))
	}
	avg := []string{"Avg"}
	for _, s := range epiSums {
		avg = append(avg, f2(s/float64(len(mixes))))
	}
	for _, s := range missSums {
		avg = append(avg, f2(s/float64(len(mixes))))
	}
	t.Rows = append(t.Rows, avg)
	return t
}
