package main

// sim-exact: one goroutine runs serial lap.Run over every registered
// policy (the "+DWB" wrappers are derived, not registered, so they stay
// out) on two Table III mixes, WL1 (few loop blocks) and WH1 (many), on
// the Table II machine; Lhybrid runs on the hybrid LLC. All host time is
// in the run layers — workload, sim, core, cache, energy — with no
// scheduler, memo or server in the way.

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	lap "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simCase is one (policy, mix) run of the sweep.
type simCase struct {
	policy lap.Policy
	cfg    lap.Config
	mix    lap.Mix
}

// simSweep lists the sweep's runs in a fixed order.
func simSweep() ([]simCase, error) {
	wl1, err := tableIIIMix("WL1")
	if err != nil {
		return nil, err
	}
	wh1, err := tableIIIMix("WH1")
	if err != nil {
		return nil, err
	}
	var cases []simCase
	for _, p := range lap.Policies() {
		cfg := lap.DefaultConfig()
		if info, ok := core.LookupPolicy(string(p)); ok && info.NeedsHybridLLC {
			cfg = cfg.WithHybridL3()
		}
		if _, err := lap.ValidatePolicy(cfg, p); err != nil {
			return nil, err
		}
		for _, m := range []lap.Mix{wl1, wh1} {
			cases = append(cases, simCase{policy: p, cfg: cfg, mix: m})
		}
	}
	return cases, nil
}

func tableIIIMix(name string) (lap.Mix, error) {
	for _, m := range lap.TableIII() {
		if m.Name == name {
			return m, nil
		}
	}
	return lap.Mix{}, fmt.Errorf("Table III has no mix %s", name)
}

// warmUp runs one short simulation so that code pages, the heap and the
// workload generators' tables are in place before anything is timed.
func warmUp(p params) error {
	mix, err := tableIIIMix("WL1")
	if err != nil {
		return err
	}
	_, err = lap.Run(lap.DefaultConfig(), lap.PolicyLAP, mix, p.size.warmAccesses, p.seed+0x9e37)
	return err
}

// checkLaws applies the accounting laws of the simulator's invariant
// tests to one result: every access executed, LLC hits plus misses equal
// LLC accesses, memory reads equal LLC misses, and clean plus dirty L2
// evictions equal L2 evictions.
func checkLaws(c simCase, r lap.Result, wantAccesses uint64) error {
	m := r.Met
	switch {
	case m.L1Accesses != wantAccesses:
		return fmt.Errorf("%s/%s: %d accesses executed, want %d", c.policy, c.mix.Name, m.L1Accesses, wantAccesses)
	case m.L3Hits+m.L3Misses != m.L3Accesses:
		return fmt.Errorf("%s/%s: L3 hits %d + misses %d != accesses %d", c.policy, c.mix.Name, m.L3Hits, m.L3Misses, m.L3Accesses)
	case m.MemReads != m.L3Misses:
		return fmt.Errorf("%s/%s: memory reads %d != LLC misses %d", c.policy, c.mix.Name, m.MemReads, m.L3Misses)
	case m.L2CleanEvictions+m.L2DirtyEvictions != m.L2Evictions:
		return fmt.Errorf("%s/%s: clean %d + dirty %d L2 evictions != %d", c.policy, c.mix.Name, m.L2CleanEvictions, m.L2DirtyEvictions, m.L2Evictions)
	}
	return nil
}

// simRun is one timed, checked lap.Run.
type simRun struct {
	res  lap.Result
	dur  time.Duration
	seed uint64
}

// runSweep runs every case once, checking each result. Case i runs on
// the input of operation first+i (see opSeed). Each run starts on a
// freshly collected heap, so that neither its time nor the peak memory
// depends on when the previous run's garbage is collected.
func runSweep(p params, rep *report, cases []simCase, first uint64) ([]simRun, error) {
	out := make([]simRun, len(cases))
	want := p.size.simAccesses * uint64(lap.DefaultConfig().Cores)
	for i, c := range cases {
		seed := opSeed(p.seed, first+uint64(i))
		runtime.GC()
		t0 := time.Now()
		res, err := lap.Run(c.cfg, c.policy, c.mix, p.size.simAccesses, seed)
		dur := time.Since(t0)
		if err != nil {
			return nil, err
		}
		expect := want
		if p.mutateExpected && i == 0 {
			expect++
		}
		rep.check(checkLaws(c, res, expect))
		out[i] = simRun{res: res, dur: dur, seed: seed}
	}
	return out, nil
}

func runSimExact(p params) (*report, error) {
	rep := newReport()
	cases, setup, err := measureSetup(p.size.setupReps, func() ([]simCase, error) {
		cases, err := simSweep()
		if err != nil {
			return nil, err
		}
		return cases, warmUp(p)
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", setup)

	// The operation is one lap.Run, each on its own input; whole sweeps
	// repeat, so every case contributes equally to the median.
	var lat []time.Duration
	var first uint64
	start := time.Now()
	err = repeatFor(p.seconds, func() error {
		runs, err := runSweep(p, rep, cases, first)
		first += uint64(len(cases))
		for _, r := range runs {
			lat = append(lat, r.dur)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.setOps(lat, time.Since(start))
	return rep, nil
}

// simLayers is sim-exact's layer probe: an untraced sweep, the same sweep
// with the source and controller wrappers (whose simulated counters must
// equal the untraced ones exactly), a standalone regeneration of the
// access streams, and a standalone replay of one recorded controller
// stream.
func simLayers(p params, rep *report) (float64, error) {
	cases, err := simSweep()
	if err != nil {
		return 0, err
	}
	plain, err := runSweep(p, rep, cases, 0)
	if err != nil {
		return 0, err
	}
	var plainDur time.Duration
	var acc, l1Miss, l2Acc, l2Miss, l3Acc, l3Hit, llcWrites uint64
	perPolicy := map[lap.Policy][2]float64{} // accesses, seconds
	for i, r := range plain {
		m := r.res.Met
		plainDur += r.dur
		acc += m.L1Accesses
		l1Miss += m.L1Misses
		l2Acc += m.L2Accesses
		l2Miss += m.L2Misses
		l3Acc += m.L3Accesses
		l3Hit += m.L3Hits
		llcWrites += m.WritesFill + m.WritesDirty + m.WritesClean + m.MigrationWrites
		pp := perPolicy[cases[i].policy]
		perPolicy[cases[i].policy] = [2]float64{pp[0] + float64(m.L1Accesses), pp[1] + r.dur.Seconds()}
	}
	for pol, v := range perPolicy {
		rep.set("core.maccess_per_s."+string(pol), "Maccess/s", v[0]/v[1]/1e6)
	}
	rep.set("cache.l1_miss_ratio", "ratio", float64(l1Miss)/float64(acc))
	rep.set("cache.l2_miss_ratio", "ratio", float64(l2Miss)/float64(l2Acc))
	rep.set("cache.llc_hit_ratio", "ratio", float64(l3Hit)/float64(l3Acc))
	rep.set("energy.llc_writes_per_kaccess", "1/kaccess", 1000*float64(llcWrites)/float64(acc))

	// Traced sweep.
	inside, outside := clockCost()
	var tracedDur, wrappedDur, wrappedSrcNS, fetchNS, evictNS time.Duration
	var fetches, evicts, wrappedAcc, tags uint64
	for i, c := range cases {
		ctrl, err := lap.NewController(c.policy, c.cfg)
		if err != nil {
			return 0, err
		}
		raw, err := sim.MixSources(c.mix, p.size.simAccesses, plain[i].seed)
		if err != nil {
			return 0, err
		}
		srcs := make([]trace.Source, len(raw))
		timed := make([]*timedSource, len(raw))
		for j, s := range raw {
			if timed[j], err = wrapSource(s); err != nil {
				return 0, err
			}
			srcs[j] = timed[j]
		}
		var tc *timedCtrl
		if _, inclusive := ctrl.(*core.Inclusive); !inclusive {
			tc = &timedCtrl{Controller: ctrl}
			ctrl = tc
		}
		t0 := time.Now()
		res := sim.Run(c.cfg, ctrl, srcs)
		dur := time.Since(t0)
		tracedDur += dur
		if p.perturbTraced && i == 0 {
			res.Met.L3Hits++
		}
		if err := sameCounters(plain[i].res, res); err != nil {
			rep.fail("traced %s/%s: %v", c.policy, c.mix.Name, err)
			continue
		}
		rep.ok()
		if tc == nil {
			continue
		}
		wrappedDur += dur
		for _, s := range timed {
			wrappedSrcNS += s.ns
		}
		fetches += tc.fetches
		evicts += tc.evicts
		wrappedAcc += res.Met.L1Accesses
		fetchNS += tc.fetchNS
		evictNS += tc.evictNS
		tags += tc.ctx.E.TagAccesses
	}
	if fetches == 0 || evicts == 0 {
		return 0, fmt.Errorf("the traced sweep made no controller calls")
	}
	rep.set("core.fetch_ns", "ns", float64(fetchNS)/float64(fetches)-float64(inside))
	rep.set("core.evict_l2_ns", "ns", float64(evictNS)/float64(evicts)-float64(inside))
	rep.set("core.fetch_per_kaccess", "1/kaccess", 1000*float64(fetches)/float64(wrappedAcc))
	rep.set("core.evict_l2_per_kaccess", "1/kaccess", 1000*float64(evicts)/float64(wrappedAcc))
	rep.set("energy.tag_per_kaccess", "1/kaccess", 1000*float64(tags)/float64(wrappedAcc))
	overhead := tracedDur.Seconds()/plainDur.Seconds() - 1
	rep.set("sim.trace_overhead_frac", "ratio", overhead)
	// Wrapper-based walk estimate over the wrapped runs: their time minus
	// the time inside the wrappers, corrected for the wrappers' own clock
	// reads, per access.
	calls := float64(fetches + evicts)
	srcCalls := float64(wrappedAcc) / 256 // one NextBatch per decode-buffer refill
	walkWrapped := float64(wrappedDur-wrappedSrcNS-fetchNS-evictNS) - (calls+srcCalls)*float64(outside)
	rep.set("sim.walk_ns_per_access_wrapped", "ns", walkWrapped/float64(wrappedAcc))
	return overhead, simStandalone(p, rep, cases, plain)
}

// sameCounters reports whether a traced run's simulated results equal the
// untraced run's exactly.
func sameCounters(want, got lap.Result) error {
	if !reflect.DeepEqual(want.Met, got.Met) {
		return fmt.Errorf("counters %+v differ from the untraced %+v", got.Met, want.Met)
	}
	if want.Cycles != got.Cycles || want.TotalNJ != got.TotalNJ || want.EPI != got.EPI ||
		!reflect.DeepEqual(want.IPCs, got.IPCs) || !reflect.DeepEqual(want.BankOps, got.BankOps) ||
		want.Policy != got.Policy {
		return fmt.Errorf("cycles/energy/IPC/bank counts differ from the untraced run")
	}
	return nil
}

// simStandalone times the workload layer alone (regenerating every run's
// access streams), the controller boundary alone (replaying the LAP/WH1
// stream), the Table II LLC's construction, and derives the walk as the
// remainder of the LAP/WH1 run.
func simStandalone(p params, rep *report, cases []simCase, plain []simRun) error {
	buf := make([]trace.Access, 256)
	var genNS time.Duration
	var genAcc uint64
	for i, c := range cases {
		srcs, err := sim.MixSources(c.mix, p.size.simAccesses, plain[i].seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, s := range srcs {
			for {
				n := trace.FillBatch(s, buf)
				genAcc += uint64(n)
				if n < len(buf) {
					break
				}
			}
		}
		genNS += time.Since(t0)
	}
	workNS := float64(genNS) / float64(genAcc)
	rep.set("workload.next_ns_per_access", "ns", workNS)

	idx := -1
	for i, c := range cases {
		if c.policy == lap.PolicyLAP && c.mix.Name == "WH1" {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("sweep has no LAP/WH1 run")
	}
	c := cases[idx]
	ctrl, err := lap.NewController(c.policy, c.cfg)
	if err != nil {
		return err
	}
	rec := &recorder{Controller: ctrl}
	srcs, err := sim.MixSources(c.mix, p.size.simAccesses, plain[idx].seed)
	if err != nil {
		return err
	}
	res := sim.Run(c.cfg, rec, srcs)
	rep.check(sameCounters(plain[idx].res, res))
	var replays []float64
	for i := 0; i < 3; i++ {
		d, err := replay(c.cfg, c.policy, rec.calls, res.Met)
		rep.check(err)
		if err != nil {
			return nil
		}
		replays = append(replays, float64(d))
	}
	replayNS := median(replays)
	rep.set("core.replay_ns_per_call", "ns", replayNS/float64(len(rec.calls)))
	accesses := float64(res.Met.L1Accesses)
	runNS := float64(plain[idx].dur)
	// The LAP/WH1 run's own workload share, regenerated alone.
	srcs, err = sim.MixSources(c.mix, p.size.simAccesses, plain[idx].seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, s := range srcs {
		for trace.FillBatch(s, buf) == len(buf) {
		}
	}
	ownWork := float64(time.Since(t0))
	rep.set("sim.walk_ns_per_access", "ns", (runNS-ownWork-replayNS)/accesses)

	l3 := cache.Config{Name: "L3", SizeBytes: c.cfg.L3SizeBytes, Ways: c.cfg.L3Ways, BlockBytes: c.cfg.BlockBytes}
	var news []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		keep = cache.New(l3)
		news = append(news, float64(time.Since(t0))/1e6)
	}
	rep.set("cache.new_llc_ms", "ms", median(news))
	rep.set("cache.llc_bytes", "bytes", float64(allocBytes(func() { keep = cache.New(l3) })))
	return nil
}
