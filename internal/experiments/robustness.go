package experiments

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Robustness extensions: the headline policy ordering should survive
// changes to simulator components the paper holds fixed — the memory
// model and the (absent) prefetcher.

// robustnessTable runs the evaluated policies over the Table III mixes
// under two configurations and reports the average EPI vs non-inclusive
// for each.
func robustnessTable(id, title string, opt Options, configs []struct {
	label string
	cfg   sim.Config
}) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"configuration", "Exclusive", "FLEXclusion", "Dswitch", "LAP"},
		Notes: []string{
			"avg over Table III mixes; the policy ordering must be stable across configurations",
		},
	}
	mixes := workload.TableIII()
	var batch []func()
	for _, c := range configs {
		pols := evaluatedPolicies(c.cfg, opt)
		batch = append(batch, mixRunBatch(c.cfg, opt, mixes, append([]namedPolicy{noniPol()}, pols...)...)...)
	}
	warm(opt, batch)
	for _, c := range configs {
		pols := evaluatedPolicies(c.cfg, opt)
		sums := make([]float64, len(pols))
		for _, mix := range mixes {
			base := run(c.cfg, "noni", Noni(), mix, opt)
			for i, p := range pols {
				r := run(c.cfg, p.Name, p.Pol, mix, opt)
				sums[i] += ratio(r.EPI.Total(), base.EPI.Total())
			}
		}
		row := []string{c.label}
		for _, s := range sums {
			row = append(row, f2(s/float64(len(mixes))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ExtDRAM re-runs the policy comparison under the DDR3-1600 row-buffer
// memory model instead of the fixed 160-cycle latency.
func ExtDRAM(opt Options) *Table {
	fixed := sim.DefaultConfig()
	rowbuf := fixed
	rowbuf.UseDRAM = true
	return robustnessTable("Ext. DRAM",
		"Policy EPI vs non-inclusive under fixed-latency and row-buffer DRAM memory",
		opt, []struct {
			label string
			cfg   sim.Config
		}{
			{"fixed 160-cycle memory", fixed},
			{"DDR3-1600 row-buffer model", rowbuf},
		})
}

// ExtPrefetch re-runs the policy comparison with a next-2-line L2
// prefetcher, which the paper's configuration lacks. Prefetch traffic
// flows through the inclusion controllers, so it stresses exactly the
// redundant-fill path LAP eliminates.
func ExtPrefetch(opt Options) *Table {
	off := sim.DefaultConfig()
	on := off
	on.PrefetchDegree = 2
	return robustnessTable("Ext. Prefetch",
		"Policy EPI vs non-inclusive without and with a next-2-line L2 prefetcher",
		opt, []struct {
			label string
			cfg   sim.Config
		}{
			{"no prefetcher (paper config)", off},
			{"next-2-line L2 prefetcher", on},
		})
}
