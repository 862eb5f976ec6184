package main

// Layer probes. Each wraps or replays a layer's public interface from
// outside the program: a trace.Source wrapper times the workload layer,
// a core.Controller wrapper times the inclusion-controller boundary
// (which includes LLC array operations, bank timing and energy metering),
// and a recorded controller-call stream replays that boundary on its own.
//
// Fidelity rules the probes keep:
//   - timedSource implements trace.BatchSource, or trace.FillBatch would
//     fall back to per-access Next and the run would measure a different
//     program;
//   - *core.Inclusive is never wrapped: the simulator type-asserts it to
//     wire back-invalidation, so a wrapped inclusive controller would
//     silently run a different policy;
//   - nothing is wrapped under checkpointing, which asserts
//     core.StateCodec on the controller.

import (
	"fmt"
	"runtime"
	"time"

	lap "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/trace"
)

// timedSource forwards NextBatch and accumulates the time spent in it.
type timedSource struct {
	src trace.BatchSource
	ns  time.Duration
}

func wrapSource(src trace.Source) (*timedSource, error) {
	b, ok := src.(trace.BatchSource)
	if !ok {
		return nil, fmt.Errorf("source %T does not implement trace.BatchSource", src)
	}
	return &timedSource{src: b}, nil
}

func (s *timedSource) Next() (trace.Access, bool) {
	var a [1]trace.Access
	if s.NextBatch(a[:]) == 0 {
		return trace.Access{}, false
	}
	return a[0], true
}

func (s *timedSource) NextBatch(dst []trace.Access) int {
	t0 := time.Now()
	n := s.src.NextBatch(dst)
	s.ns += time.Since(t0)
	return n
}

// timedCtrl forwards Fetch and EvictL2, counting and timing each call. It
// keeps the last Ctx it saw so the run's energy meter can be read after.
type timedCtrl struct {
	core.Controller
	fetchNS, evictNS time.Duration
	fetches, evicts  uint64
	ctx              *core.Ctx
}

func (c *timedCtrl) Fetch(x *core.Ctx, block uint64) core.FetchResult {
	t0 := time.Now()
	r := c.Controller.Fetch(x, block)
	c.fetchNS += time.Since(t0)
	c.fetches++
	c.ctx = x
	return r
}

func (c *timedCtrl) EvictL2(x *core.Ctx, v cache.Line) {
	t0 := time.Now()
	c.Controller.EvictL2(x, v)
	c.evictNS += time.Since(t0)
	c.evicts++
	c.ctx = x
}

// clockCost measures what the wrappers' clock reads cost per timed call:
// inside is the part that lands inside the measured interval (to subtract
// from per-call times), outside the rest of the pair (to subtract from
// the run time that surrounds the calls).
func clockCost() (inside, outside time.Duration) {
	const n = 200_000
	var in time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		in += time.Since(s)
	}
	total := time.Since(t0)
	return in / n, (total - in) / n
}

// ctrlCall is one recorded call at the controller boundary: a Fetch of
// line.Tag or an EvictL2 of line, made at cycle now, with the Fetch's
// outcome for the replay's fidelity check.
type ctrlCall struct {
	now   uint64
	line  cache.Line
	evict bool
	res   core.FetchResult
}

// recorder forwards every call and records it.
type recorder struct {
	core.Controller
	calls []ctrlCall
}

func (r *recorder) Fetch(x *core.Ctx, block uint64) core.FetchResult {
	res := r.Controller.Fetch(x, block)
	r.calls = append(r.calls, ctrlCall{now: x.Now, line: cache.Line{Tag: block}, res: res})
	return res
}

func (r *recorder) EvictL2(x *core.Ctx, v cache.Line) {
	r.Controller.EvictL2(x, v)
	r.calls = append(r.calls, ctrlCall{now: x.Now, line: v, evict: true})
}

// replayCtx builds the environment a controller sees inside a run of cfg,
// from the layers' own constructors. It covers single-technology LLCs,
// which is what the replayed stream uses.
func replayCtx(cfg lap.Config) *core.Ctx {
	l3 := cache.New(cache.Config{
		Name: "L3", SizeBytes: cfg.L3SizeBytes, Ways: cfg.L3Ways,
		BlockBytes: cfg.BlockBytes, SRAMWays: cfg.L3SRAMWays,
		Replacement: cfg.L3Replacement,
	})
	occ := func(lat uint64) uint64 {
		frac := cfg.BankOccupancyFrac
		if frac <= 0 || frac > 1 {
			frac = 1
		}
		return max(uint64(float64(lat)*frac), 1)
	}
	return &core.Ctx{
		L3:        l3,
		E:         energy.SingleTech(cfg.ClockHz, cfg.L3Tech, int64(cfg.L3SizeBytes)),
		Met:       &core.Metrics{},
		Banks:     core.NewBanks(cfg.L3Banks),
		ReadCyc:   [2]uint64{cfg.L3ReadCycles, cfg.L3ReadCycles},
		WriteCyc:  [2]uint64{cfg.L3WriteCycles, cfg.L3WriteCycles},
		ReadOcc:   [2]uint64{occ(cfg.L3ReadCycles), occ(cfg.L3ReadCycles)},
		WriteOcc:  [2]uint64{occ(cfg.L3WriteCycles), occ(cfg.L3WriteCycles)},
		MemCycles: cfg.MemCycles,
	}
}

// replay drives a fresh controller through a recorded call stream and
// returns the wall time of the replay loop alone. It checks that every
// Fetch outcome matches the recording and that the LLC-side counters match
// want, the full run's counters.
func replay(cfg lap.Config, p lap.Policy, calls []ctrlCall, want core.Metrics) (time.Duration, error) {
	ctrl, err := lap.NewController(p, cfg)
	if err != nil {
		return 0, err
	}
	x := replayCtx(cfg)
	mismatch := -1
	t0 := time.Now()
	for i := range calls {
		c := &calls[i]
		x.Now = c.now
		if c.evict {
			ctrl.EvictL2(x, c.line)
		} else if r := ctrl.Fetch(x, c.line.Tag); r != c.res && mismatch < 0 {
			mismatch = i
		}
	}
	elapsed := time.Since(t0)
	if mismatch >= 0 {
		return 0, fmt.Errorf("replay of %s diverged at call %d of %d", p, mismatch, len(calls))
	}
	got := x.Met
	if got.L3Accesses != want.L3Accesses || got.L3Hits != want.L3Hits || got.L3Misses != want.L3Misses ||
		got.WritesFill != want.WritesFill || got.WritesDirty != want.WritesDirty || got.WritesClean != want.WritesClean ||
		got.L3Evictions != want.L3Evictions || got.MemReads != want.MemReads || got.MemWrites != want.MemWrites {
		return 0, fmt.Errorf("replay of %s: LLC counters %+v differ from the run's %+v", p, *got, want)
	}
	return elapsed, nil
}

// layerProbes lists, in run order, the layer probes: each a traced pass
// over some layers, checked against an untraced pass, returning the
// tracing overhead between the two. Each workload owns the probe of the
// layers it exercises; the checkpoint probe has no workload.
var layerProbes = []struct {
	owner string
	run   func(p params, rep *report) (overhead float64, err error)
}{
	{"sim-exact", simLayers},
	{"artifact-quick", artifactLayers},
	{"serve-mix", serveLayers},
	{"", ckptLayers},
}

// traceLayers is the traced run. Every workload reports every per-layer
// metric, so it runs every probe: the workload's own at the workload's
// sizes, whose overhead is reported as tracing.overhead_frac, and the
// others at probe sizes, which leave the checkpoint probe's unchanged.
func traceLayers(p params, rep *report) error {
	if err := warmUp(p); err != nil {
		return err
	}
	for _, pr := range layerProbes {
		q := p
		own := pr.owner == p.workload
		if !own {
			q.size = p.size.probe()
			q.seconds = min(p.seconds, probeSeconds)
		}
		overhead, err := pr.run(q, rep)
		if err != nil {
			return fmt.Errorf("%s layer probe: %w", pr.owner, err)
		}
		if own {
			rep.set("tracing.overhead_frac", "ratio", overhead)
		}
	}
	return nil
}

// keep holds the last probe-built cache so the compiler cannot drop the
// construction being timed.
var keep *cache.Cache

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
