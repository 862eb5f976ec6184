package main

// The checkpoint layer probe: lap.RunResumable runs WH1 under LAP with a
// fresh CheckpointStore and a short CheckpointEvery, and a resume restores
// from the store. Nothing else writes cache and controller state as
// snapshots and reads it back as restores, so this probe is the only
// measure of internal/checkpoint and the state codecs. It runs at full
// size in every traced run. It is not a workload: as one, its operation
// time spread more between runs than any bound allows (see CHANGES.md).

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	lap "repro"
	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// ckptDir is the run's scratch store root inside the checkout.
func ckptDir(p params) string {
	return filepath.Join(p.root, ".bench_build", fmt.Sprintf("ckpt-%d", os.Getpid()))
}

// ckptLayers is the checkpoint layer probe. Nothing is wrapped (the
// checkpoint codec asserts core.StateCodec on the controller); instead
// sim.RunCheckpointed runs with a sink that times Store.Put, and the
// store's Latest and the resumed RunCheckpointed are timed around the
// calls. Snapshot encoding happens inside the simulator, so its cost is
// the checkpointed run minus a plain run minus the puts, per snapshot.
func ckptLayers(p params, rep *report) (float64, error) {
	mix, err := tableIIIMix("WH1")
	if err != nil {
		return 0, err
	}
	cfg := lap.DefaultConfig()
	cfg.CheckpointEvery = p.size.ckptEvery
	dir := ckptDir(p)
	defer os.RemoveAll(dir)
	t0 := time.Now()
	want, err := lap.Run(lap.DefaultConfig(), lap.PolicyLAP, mix, p.size.ckptAccesses, p.seed)
	if err != nil {
		return 0, err
	}
	plain := time.Since(t0)

	// Untraced checkpointed run: the base for the tracing overhead.
	base, err := lap.OpenCheckpointStore(filepath.Join(dir, "base"))
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	res, err := lap.RunResumable(cfg, lap.PolicyLAP, mix, p.size.ckptAccesses, p.seed, base)
	if err != nil {
		return 0, err
	}
	untraced := time.Since(t0)
	rep.check(sameCounters(want, res))

	st, err := checkpoint.Open(filepath.Join(dir, "traced"))
	if err != nil {
		return 0, err
	}
	key := checkpoint.RunKey(cfg, checkpoint.MixWorkload(mix.Name, mix.Members, cfg.Cores, p.size.ckptAccesses, p.seed), string(lap.PolicyLAP))
	var puts []float64
	var payload int
	sink := func(interval, accesses uint64, data []byte) {
		t := time.Now()
		err := st.Put(key, checkpoint.Entry{Interval: interval, Accesses: accesses, Payload: data})
		puts = append(puts, float64(time.Since(t))/1e6)
		payload += len(data)
		if err != nil {
			rep.fail("checkpoint put: %v", err)
		}
	}
	ctrl, err := lap.NewController(lap.PolicyLAP, cfg)
	if err != nil {
		return 0, err
	}
	srcs, err := sim.MixSources(mix, p.size.ckptAccesses, p.seed)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	res, err = sim.RunCheckpointed(cfg, ctrl, srcs, nil, sink)
	if err != nil {
		return 0, err
	}
	traced := time.Since(t0)
	if p.perturbTraced {
		res.Met.L3Hits++
	}
	rep.check(sameCounters(want, res))
	if len(puts) == 0 {
		return 0, fmt.Errorf("the checkpointed run took no snapshots")
	}
	n := float64(len(puts))
	rep.set("checkpoint.snapshots", "count", n)
	rep.set("checkpoint.payload_bytes", "bytes", float64(payload)/n)
	rep.set("checkpoint.put_ms", "ms", sum(puts)/n)
	rep.set("sim.snapshot_encode_ms", "ms", (float64(traced-plain)/1e6-sum(puts))/n)

	var latest []float64
	var ent checkpoint.Entry
	for i := 0; i < 3; i++ {
		t := time.Now()
		ent, err = st.Latest(key)
		if err != nil {
			return 0, fmt.Errorf("latest checkpoint: %w", err)
		}
		latest = append(latest, float64(time.Since(t))/1e6)
	}
	rep.set("checkpoint.latest_ms", "ms", median(latest))

	ctrl, err = lap.NewController(lap.PolicyLAP, cfg)
	if err != nil {
		return 0, err
	}
	srcs, err = sim.MixSources(mix, p.size.ckptAccesses, p.seed)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	res, err = sim.RunCheckpointed(cfg, ctrl, srcs, ent.Payload, nil)
	if err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	rep.set("sim.resume_ms", "ms", float64(time.Since(t0))/1e6)
	rep.check(sameCounters(want, res))
	return traced.Seconds()/untraced.Seconds() - 1, nil
}
