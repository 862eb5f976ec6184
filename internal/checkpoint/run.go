package checkpoint

// Run-side orchestration: the resume-from-latest-valid-checkpoint flow
// shared by lap, internal/experiments, and lapserved. The store holds
// opaque payloads; this file knows how to key them (normalized config
// digest × workload digest), apply them to a machine, and — the
// robustness contract — degrade every durability failure to a cold
// start. A missing store, a corrupt entry, an injected fault, or an
// unusable payload never fails the run; it only costs the fast-forward.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunKey builds the store key for one exact run: the digest of the
// config's run identity (sim.Config.RunIdentity, so a run checkpointed
// at one interval resumes under any other) crossed with a workload
// descriptor that must pin everything
// else the simulation depends on — mix members, accesses, seed, and
// policy (controller state lives inside the payload).
func RunKey(cfg sim.Config, workload, policy string) Key {
	return Key{
		Kind:     KindRun,
		Config:   DigestJSON(cfg.RunIdentity()),
		Workload: Digest(workload, "policy="+policy),
	}
}

// ResumableRun executes one exact simulation with durable checkpoints:
// it restores the latest valid checkpoint for the key (if any), fast-
// forwards, and keeps snapshotting every cfg.CheckpointEvery accesses.
// mkCtrl and mkSrcs are factories because a failed restore taints the
// controller and sources it was attempted on: the cold retry rebuilds
// both. With a nil store the run simply executes cold, unchecked.
//
// The result is byte-identical to an uninterrupted run on the same
// inputs, whichever path was taken.
func ResumableRun(st *Store, cfg sim.Config, workload, policy string, mkCtrl func() core.Controller, mkSrcs func() ([]trace.Source, error)) (sim.Result, error) {
	run := func(resume []byte, sink sim.CheckpointSink) (sim.Result, error) {
		srcs, err := mkSrcs()
		if err != nil {
			return sim.Result{}, err
		}
		return sim.RunCheckpointed(cfg, mkCtrl(), srcs, resume, sink)
	}
	if st == nil || cfg.CheckpointEvery == 0 {
		return run(nil, nil)
	}

	key := RunKey(cfg, workload, policy)
	sink := func(interval, accesses uint64, payload []byte) {
		// Durability failures are counted in the store's metrics and
		// otherwise ignored: the run must not care.
		_ = st.Put(key, Entry{Interval: interval, Accesses: accesses, Payload: payload})
	}

	if ent, err := st.Latest(key); err == nil {
		if ferr := fault.Inject(fault.PointCheckpointRestore, key.String()); ferr != nil {
			st.NoteRestoreFailed()
		} else if res, rerr := run(ent.Payload, sink); rerr == nil {
			st.NoteRestored(ent.Interval)
			return res, nil
		} else {
			// CRC-valid but unusable (payload version or shape drift).
			// Count it, quarantine the stream so the next run does not
			// retry it, and fall through to a cold start.
			st.NoteRestoreFailed()
			st.Drop(key)
		}
	}
	return run(nil, sink)
}

// String-building helper shared by the callers that label workloads.
// Mixes are described as "mix:NAME[members]|cores=N|acc=N|seed=N".
func MixWorkload(name string, members []string, cores int, accesses, seed uint64) string {
	desc := name + "["
	for i, m := range members {
		if i > 0 {
			desc += ","
		}
		desc += m
	}
	return fmt.Sprintf("mix:%s]|cores=%d|acc=%d|seed=%d", desc, cores, accesses, seed)
}
