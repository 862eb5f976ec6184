package experiments

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sensitivity studies (Section VI-D): Figure 21 (L2:L3 capacity ratios),
// Figure 22 (core count), and Figure 23 (write/read energy ratio).

// avgEPIOverMixes runs every Table III mix under each policy and returns
// the WL-average, WH-average and overall average EPI normalised to
// non-inclusive. WL/WH classification uses the measured write ratio.
func avgEPIOverMixes(cfg sim.Config, opt Options, pols []namedPolicy) (wl, wh, all map[string]float64) {
	wl = map[string]float64{}
	wh = map[string]float64{}
	all = map[string]float64{}
	// Empty groups stay empty maps so callers can skip them.
	var nWL, nWH int
	mixes := tableIIIMixesFor(cfg.Cores)
	warmMixRuns(cfg, opt, mixes, append([]namedPolicy{noniPol(), exPol()}, pols...)...)
	for _, mix := range mixes {
		b := baselines(cfg, mix, opt)
		isWL := b.Wrel() < 1
		if isWL {
			nWL++
		} else {
			nWH++
		}
		for _, p := range pols {
			r := run(cfg, p.Name, p.Pol, mix, opt)
			rel := ratio(r.EPI.Total(), b.Noni.EPI.Total())
			all[p.Name] += rel
			if isWL {
				wl[p.Name] += rel
			} else {
				wh[p.Name] += rel
			}
		}
	}
	for name := range all {
		all[name] /= float64(len(mixes))
		if nWL > 0 {
			wl[name] /= float64(nWL)
		}
		if nWH > 0 {
			wh[name] /= float64(nWH)
		}
	}
	return wl, wh, all
}

// tableIIIMixesFor widens the Table III mixes to the given core count by
// repeating members, so the 8-core study (Fig. 22) keeps the same
// workload character.
func tableIIIMixesFor(cores int) []workload.Mix {
	base := workload.TableIII()
	if cores == len(base[0].Members) {
		return base
	}
	out := make([]workload.Mix, len(base))
	for i, m := range base {
		members := make([]string, cores)
		for j := range members {
			members[j] = m.Members[j%len(m.Members)]
		}
		out[i] = workload.Mix{Name: m.Name, Members: members}
	}
	return out
}

// Fig21 sweeps the L2:L3 capacity ratio: (a) private L2 256KB-1MB with an
// 8MB L3; (b) larger L3s (16MB, 24MB) exploiting STT-RAM density.
func Fig21(opt Options) *Table {
	t := &Table{
		ID:     "Fig. 21",
		Title:  "LLC EPI normalised to non-inclusive across L2:L3 capacity ratios (avg over Table III mixes)",
		Header: []string{"config", "group", "Exclusive", "FLEXclusion", "Dswitch", "LAP"},
		Notes: []string{
			"paper shape: exclusion and LAP gain as L2:L3 grows; at 24MB L3, LAP still saves ~10%",
		},
	}
	addConfig := func(label string, cfg sim.Config) {
		pols := evaluatedPolicies(cfg, opt)
		wl, wh, all := avgEPIOverMixes(cfg, opt, pols)
		for _, group := range []struct {
			name string
			m    map[string]float64
		}{{"WL", wl}, {"WH", wh}, {"All", all}} {
			if len(group.m) == 0 {
				continue
			}
			row := []string{label, group.name}
			for _, p := range pols {
				row = append(row, f2(group.m[p.Name]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	for _, l2kb := range []int{256, 512, 1024} {
		cfg := sim.DefaultConfig()
		cfg.L2SizeBytes = l2kb << 10
		addConfig(fmt.Sprintf("L2=%dKB,L3=8MB (1:%d)", l2kb, cfg.L3SizeBytes/(cfg.Cores*cfg.L2SizeBytes)), cfg)
	}
	for _, l3mb := range []int{16, 24} {
		cfg := sim.DefaultConfig()
		cfg.L3SizeBytes = l3mb << 20
		if l3mb == 24 {
			// Keep a power-of-two set count by widening associativity.
			cfg.L3Ways = 24
		}
		addConfig(fmt.Sprintf("L2=512KB,L3=%dMB", l3mb), cfg)
	}
	return t
}

// Fig22 compares 4-core and 8-core systems with fixed cache sizes.
func Fig22(opt Options) *Table {
	t := &Table{
		ID:     "Fig. 22",
		Title:  "LLC EPI normalised to non-inclusive for 4- and 8-core systems (avg over Table III mixes)",
		Header: []string{"cores", "group", "Exclusive", "FLEXclusion", "Dswitch", "LAP"},
		Notes: []string{
			"paper shape: more cores -> more capacity contention -> exclusion gains; LAP saves ~25%/~12% at 8 cores",
		},
	}
	for _, cores := range []int{4, 8} {
		cfg := sim.DefaultConfig()
		cfg.Cores = cores
		pols := evaluatedPolicies(cfg, opt)
		wl, wh, all := avgEPIOverMixes(cfg, opt, pols)
		for _, group := range []struct {
			name string
			m    map[string]float64
		}{{"WL", wl}, {"WH", wh}, {"All", all}} {
			if len(group.m) == 0 {
				continue
			}
			row := []string{itoa(cores), group.name}
			for _, p := range pols {
				row = append(row, f2(group.m[p.Name]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig23 sweeps the STT-RAM write/read energy ratio, holding read energy
// and leakage fixed, and reports LAP's average EPI savings over
// non-inclusion; published design points are evaluated at their ratios.
func Fig23(opt Options) *Table {
	t := &Table{
		ID:     "Fig. 23",
		Title:  "LAP EPI savings over non-inclusive vs write/read energy ratio",
		Header: []string{"w/r ratio", "design point", "LAP savings"},
		Notes: []string{
			"paper shape: savings grow with the ratio; >=17% already at 2x; the ratio is the key predictor",
		},
	}
	type point struct {
		ratioWR float64
		label   string
	}
	points := []point{}
	for _, r := range []float64{2, 3.3, 5, 8, 12, 16, 20, 25} {
		points = append(points, point{r, "scalability sweep"})
	}
	for _, pc := range energy.PublishedConfigs() {
		points = append(points, point{pc.WriteReadRatio, pc.Ref + " " + pc.Description})
	}
	cfgFor := func(ratioWR float64) sim.Config {
		return sim.DefaultConfig().WithSTTL3(energy.STTRAM().WithWriteReadRatio(ratioWR))
	}
	mixes := workload.TableIII()
	var batch []func()
	for _, p := range points {
		batch = append(batch, mixRunBatch(cfgFor(p.ratioWR), opt, mixes, noniPol(), namedPolicy{"LAP", LAP(opt)})...)
	}
	warm(opt, batch)
	for _, p := range points {
		cfg := cfgFor(p.ratioWR)
		var save float64
		for _, mix := range mixes {
			base := run(cfg, "noni", Noni(), mix, opt)
			lap := run(cfg, "LAP", LAP(opt), mix, opt)
			save += 1 - ratio(lap.EPI.Total(), base.EPI.Total())
		}
		t.AddRow(fmt.Sprintf("%.1f", p.ratioWR), p.label, pct(save/float64(len(mixes))))
	}
	return t
}
