package experiments

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig20 evaluates the multi-threaded PARSEC surrogates with the snooping
// coherence bus: (a) total LLC energy, (b) performance (1/runtime), and
// (c) coherence traffic, all normalised to the non-inclusive policy.
func Fig20(opt Options) *Table {
	cfg := sim.DefaultConfig()
	pols := evaluatedPolicies(cfg, opt)
	t := &Table{
		ID:     "Fig. 20",
		Title:  "PARSEC (4 threads, MOESI snooping): energy, performance, snoop traffic vs non-inclusive",
		Header: []string{"benchmark", "metric", "Exclusive", "FLEXclusion", "Dswitch", "LAP"},
		Notes: []string{
			"paper shape: LAP saves ~11%/~7% energy vs noni/ex; streamcluster saves most (53%/18%);",
			"exclusion cuts snoop traffic ~38% vs noni; LAP ~33% (5% more than exclusion)",
		},
	}
	var sumE, sumP, sumS [4]float64
	benches := workload.PARSEC()
	warm(opt, threadedRunBatch(cfg, opt, benches, append([]namedPolicy{noniPol()}, pols...)...))
	for _, b := range benches {
		base := runThreaded(cfg, "noni", Noni(), b, opt)
		eRow := []string{b.Name, "energy"}
		pRow := []string{"", "performance"}
		sRow := []string{"", "snoop traffic"}
		for i, p := range pols {
			r := runThreaded(cfg, p.Name, p.Pol, b, opt)
			re := ratio(r.TotalNJ, base.TotalNJ)
			// Multi-threaded performance is inverse runtime (the paper
			// reports latency for PARSEC).
			rp := ratio(float64(base.Cycles), float64(r.Cycles))
			rs := ratio(float64(r.Met.SnoopTraffic), float64(base.Met.SnoopTraffic))
			sumE[i] += re
			sumP[i] += rp
			sumS[i] += rs
			eRow = append(eRow, f2(re))
			pRow = append(pRow, f2(rp))
			sRow = append(sRow, f2(rs))
		}
		t.Rows = append(t.Rows, eRow, pRow, sRow)
	}
	n := float64(len(benches))
	avgE := []string{"Avg", "energy"}
	avgP := []string{"", "performance"}
	avgS := []string{"", "snoop traffic"}
	for i := range pols {
		avgE = append(avgE, f2(sumE[i]/n))
		avgP = append(avgP, f2(sumP[i]/n))
		avgS = append(avgS, f2(sumS[i]/n))
	}
	t.Rows = append(t.Rows, avgE, avgP, avgS)
	return t
}
