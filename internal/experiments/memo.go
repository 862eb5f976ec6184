package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	memocache "repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	otrace "repro/internal/obs/trace"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Experiments share many (config, policy, mix) simulation runs — e.g. the
// non-inclusive baseline appears in every figure. A process-wide memo
// avoids recomputing them when cmd/lapexp regenerates several artifacts in
// one invocation. Keys include every knob that affects a run, and name
// the controller by what its factory builds (Policy.ID), not by the label
// a table prints, so two artifacts that label one policy differently
// share its runs.
//
// Under the parallel scheduler (sched.go) the memo is also the
// coordination point: it is a singleflight cache. The first request for a
// key computes the run while concurrent duplicates block on a per-key
// latch, so no simulation is ever executed twice no matter how many
// workers race for it. The machinery lives in internal/memo (promoted
// there so lapserved can share it); this file keeps the experiment-shaped
// key and the package-level wrappers so artifact generators and their
// determinism tests are unaffected by the extraction.

// memoKey identifies one simulation run. sim.Config is embedded by value,
// so the compiler rejects this type as a map key the moment Config gains
// a non-comparable (slice/map/func) field — the memo breaks loudly at
// build time instead of silently keying every run differently, which the
// old fmt.Sprintf("%+v") fingerprint could not guarantee.
// TestMemoKeyConfigFields additionally rejects pointer fields, which
// would compare by identity rather than by value.
type memoKey struct {
	Cfg sim.Config
	// Policy is the run identity Policy.ID; it carries the duel period
	// and every other parameter the factory applies.
	Policy   string
	Mix      string
	Threaded bool
	Accesses uint64
	Seed     uint64
}

// runKey builds the memo key for the controller identified by policy (a
// Policy.ID). Options contributes only the knobs that change a run's
// outcome outside the factory; the scheduling knob Jobs is deliberately
// excluded, and Cfg is the run identity (sim.Config.RunIdentity), so
// serial, parallel and checkpointed invocations share entries.
func runKey(cfg sim.Config, policy string, mix workload.Mix, threaded bool, opt Options) memoKey {
	return memoKey{
		Cfg:      cfg.RunIdentity(),
		Policy:   policy,
		Mix:      mix.Name + "[" + strings.Join(mix.Members, ",") + "]",
		Threaded: threaded,
		Accesses: opt.Accesses,
		Seed:     opt.Seed,
	}
}

// memo is the process-wide singleflight run cache. Artifact sweeps are
// finite (one lapexp invocation touches a bounded set of runs), so the
// cache is unbounded here; lapserved builds its own bounded instance.
var memo = memocache.New[memoKey, sim.Result](0)

// runE executes (or recalls) one simulation, with the run's failure
// domain contained to its own memo cell: a panicking simulation becomes
// a typed *pool.RunError, a configuration error propagates as-is, and
// either way nothing is cached (a retry recomputes). The memo keys the
// run on pol.ID; label only names the cell in spans, journal events and
// panics.
func runE(cfg sim.Config, label string, pol Policy, mix workload.Mix, opt Options) (sim.Result, error) {
	if opt.Checkpoints != nil && opt.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opt.CheckpointEvery
	}
	key := runKey(cfg, pol.ID, mix, false, opt)
	cell := key.Mix + "|" + label
	ctx, sp := cellSpan(opt, cell)
	res, err := memo.DoErr(ctx, key, cellObserved(opt, cell, func() (res sim.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = pool.Recovered(cell, r)
			}
		}()
		if err := fault.Inject(fault.PointExpRun, cell); err != nil {
			return sim.Result{}, err
		}
		if opt.Checkpoints != nil && cfg.CheckpointEvery > 0 {
			if len(mix.Members) != cfg.Cores {
				return sim.Result{}, fmt.Errorf("experiments: mix %s has %d members for %d cores", mix.Name, len(mix.Members), cfg.Cores)
			}
			// The policy descriptor must pin everything the controller
			// factory bakes in, which is exactly what pol.ID renders.
			wl := checkpoint.MixWorkload(mix.Name, mix.Members, cfg.Cores, opt.Accesses, opt.Seed)
			return checkpoint.ResumableRun(opt.Checkpoints, cfg, wl, pol.ID, pol.New, func() ([]trace.Source, error) {
				return sim.MixSources(mix, opt.Accesses, opt.Seed)
			})
		}
		return sim.RunMix(cfg, pol.New, mix, opt.Accesses, opt.Seed)
	}))
	sp.End()
	return res, err
}

// cellObserved wraps one cell's compute with journal lifecycle events.
// Only actual executions emit (the wrapper sits inside the memo, so
// recalls and latch-waits stay silent); a nil journal returns compute
// unwrapped.
func cellObserved(opt Options, cell string, compute func() (sim.Result, error)) func() (sim.Result, error) {
	if opt.Journal == nil {
		return compute
	}
	return func() (sim.Result, error) {
		opt.Journal.Emit(journal.Event{Kind: "cell.start", Run: cell})
		res, err := compute()
		if err != nil {
			opt.Journal.Emit(journal.Event{Kind: "cell.failed", Run: cell, Msg: err.Error()})
		} else {
			opt.Journal.Emit(journal.Event{Kind: "cell.finish", Run: cell,
				Fields: journal.F("cycles", res.Cycles, "l3_misses", res.Met.L3Misses)})
		}
		return res, err
	}
}

// cellSpan opens a per-cell root span on opt.Trace (nil-safe, zero cost
// when tracing is off). The span's ctx flows into the memo, so the
// recorded timeline distinguishes computes from recalls per cell.
func cellSpan(opt Options, cell string) (context.Context, *otrace.Span) {
	ctx, sp := opt.Trace.Root(context.Background(), "cell", otrace.Str("cell", cell))
	if sp != nil {
		opt.Trace.NameTrack(otrace.PidWall, sp.ID(), cell)
	}
	return ctx, sp
}

// run is runE for the static experiment definitions of this package,
// where a failing run is a bug: it panics with the cell label so the
// per-artifact containment in cmd/lapexp can report which run died.
func run(cfg sim.Config, label string, pol Policy, mix workload.Mix, opt Options) sim.Result {
	res, err := runE(cfg, label, pol, mix, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: run %s[%s]|%s: %v",
			mix.Name, strings.Join(mix.Members, ","), label, err))
	}
	return res
}

// runThreadedE executes (or recalls) one coherent multi-threaded run,
// with the same failure containment as runE.
func runThreadedE(cfg sim.Config, label string, pol Policy, b workload.Benchmark, opt Options) (sim.Result, error) {
	key := runKey(cfg, pol.ID, workload.Mix{Name: b.Name}, true, opt)
	cell := key.Mix + "|" + label
	ctx, sp := cellSpan(opt, cell)
	res, err := memo.DoErr(ctx, key, cellObserved(opt, cell, func() (res sim.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = pool.Recovered(cell, r)
			}
		}()
		if err := fault.Inject(fault.PointExpRun, cell); err != nil {
			return sim.Result{}, err
		}
		return sim.RunThreaded(cfg, pol.New, b, opt.Accesses, opt.Seed), nil
	}))
	sp.End()
	return res, err
}

// runThreaded is run's panicking counterpart for threaded runs.
func runThreaded(cfg sim.Config, label string, pol Policy, b workload.Benchmark, opt Options) sim.Result {
	res, err := runThreadedE(cfg, label, pol, b, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: threaded run %s|%s: %v", b.Name, label, err))
	}
	return res
}

// RegisterMetrics exposes the process-wide run memo and worker-pool
// counters on an optional obs registry under namespace ns (cmd/lapexp
// passes "lapexp", so its -timings JSON and a future /metrics share
// series names). A nil registry is a no-op.
func RegisterMetrics(r *obs.Registry, ns string) {
	memo.Register(r, ns+"_memo")
	pool.Register(r, ns+"_pool")
}

// ResetMemo clears the run cache (tests and benchmarks use it to bound
// memory and force recomputation). See memo.Cache.Reset for the contract
// under concurrency; the Stats counters survive a reset.
func ResetMemo() {
	memo.Reset()
}

// MemoStats counts run-cache activity since process start: Computed is
// the number of simulations actually executed, Recalled the number of
// requests served from the cache (including requests that waited on an
// in-flight computation), Failed the number of runs that errored or
// panicked (and were not cached). ResetMemo does not reset the counters,
// so deltas around a code region meter its simulation cost (this is how
// cmd/lapexp -timings derives per-artifact runs/sec).
type MemoStats struct {
	Computed uint64 `json:"computed"`
	Recalled uint64 `json:"recalled"`
	Failed   uint64 `json:"failed,omitempty"`
}

// Stats snapshots the memo counters.
func Stats() MemoStats {
	s := memo.Stats()
	return MemoStats{Computed: s.Computed, Recalled: s.Recalled, Failed: s.Failed}
}
