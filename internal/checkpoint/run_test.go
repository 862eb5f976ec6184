package checkpoint

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestResumableRunRebuildsOldPayloadCold: a CRC-valid checkpoint whose
// machine payload carries an earlier payload version (an older
// cache-state layout) is refused, its stream is dropped, and the run
// completes cold with the uninterrupted result, leaving fresh
// current-version checkpoints behind.
func TestResumableRunRebuildsOldPayloadCold(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.CheckpointEvery = 10_000
	mix := workload.TableIII()[0]
	mkSrcs := func() ([]trace.Source, error) { return sim.MixSources(mix, 15_000, 3) }
	mkCtrl := func() core.Controller { return core.NewLAP() }

	srcs, _ := mkSrcs()
	ref := sim.Run(cfg, mkCtrl(), srcs)

	var payload []byte
	srcs, _ = mkSrcs()
	if _, err := sim.RunCheckpointed(cfg, mkCtrl(), srcs, nil, func(_, _ uint64, p []byte) {
		if payload == nil {
			payload = append([]byte(nil), p...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("no checkpoint captured")
	}
	current := payload[0]
	payload[0] = current - 1 // the leading byte is the machine payload version

	key := RunKey(cfg, "wl", "LAP")
	if err := st.Put(key, Entry{Interval: 1, Accesses: 10_000, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	res, err := ResumableRun(st, cfg, "wl", "LAP", mkCtrl, mkSrcs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatal("cold rebuild after an old-version checkpoint diverged from the plain run")
	}
	if st.Metrics().Restores() != 0 || st.Metrics().Corrupt() != 1 {
		t.Fatalf("restores=%d corrupt=%d, want 0 and 1", st.Metrics().Restores(), st.Metrics().Corrupt())
	}
	ent, err := st.Latest(key)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Payload[0] != current {
		t.Fatalf("fresh checkpoint has payload version %d, want %d", ent.Payload[0], current)
	}
}
