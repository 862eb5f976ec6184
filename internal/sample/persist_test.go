package sample

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// TestProfilePersistRoundTrip is the satellite guarantee: a profile
// decoded from its serialized form (with positionally rebuilt source
// checkpoints) replays every policy to results deeply equal to the
// original profile's — so a persisted profile can stand in for the
// functional pass it skipped.
func TestProfilePersistRoundTrip(t *testing.T) {
	cfg := testCfg()
	cfg.SampleInterval = 2000
	cfg.SampleClusters = 4
	cfg.SampleWarmup = 1
	const total = 21000 // deliberately not an interval multiple

	orig, err := BuildProfile(cfg, testSources(2, total), cfg.SampleInterval)
	if err != nil {
		t.Fatal(err)
	}
	payload := orig.Encode()
	restored, err := DecodeProfile(payload, testSources(2, total))
	if err != nil {
		t.Fatal(err)
	}
	if restored.PerCore != orig.PerCore || restored.Cores != orig.Cores ||
		!reflect.DeepEqual(restored.Intervals, orig.Intervals) {
		t.Fatal("restored profile metadata diverged")
	}
	if restored.snapStride != orig.snapStride || len(restored.states) != len(orig.states) {
		t.Fatalf("restored snapshots diverged: stride %d/%d, count %d/%d",
			restored.snapStride, orig.snapStride, len(restored.states), len(orig.states))
	}

	for name, mk := range map[string]func() core.Controller{
		"LAP":  func() core.Controller { return core.NewLAP() },
		"excl": func() core.Controller { return core.NewExclusive() },
	} {
		want, err := Run(cfg, mk(), orig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg, mk(), restored)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: replay from restored profile diverged:\nwant %+v\ngot  %+v", name, want.Sim, got.Sim)
		}
	}
}

// TestProfileDecodeRejectsBadPayloads pins the degrade-to-rebuild path:
// shape and framing problems error, they never produce a usable-looking
// profile.
func TestProfileDecodeRejectsBadPayloads(t *testing.T) {
	cfg := testCfg()
	orig, err := BuildProfile(cfg, testSources(2, 21000), 2000)
	if err != nil {
		t.Fatal(err)
	}
	payload := orig.Encode()

	if _, err := DecodeProfile(payload, testSources(1, 21000)); err == nil {
		t.Fatal("decoding a 2-core profile with 1 source did not error")
	}
	if _, err := DecodeProfile(payload[:len(payload)-3], testSources(2, 21000)); err == nil {
		t.Fatal("truncated payload did not error")
	}
	if _, err := DecodeProfile(append(payload[:len(payload):len(payload)], 0), testSources(2, 21000)); err == nil {
		t.Fatal("trailing bytes did not error")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 99 // payload version
	if _, err := DecodeProfile(bad, testSources(2, 21000)); err == nil {
		t.Fatal("future payload version did not error")
	}
	if _, err := DecodeProfile(nil, testSources(2, 21000)); err == nil {
		t.Fatal("empty payload did not error")
	}
}

// TestProfileOldPayloadVersionRebuilt pins the layout-change contract: a
// persisted profile written at an earlier payload version (an older
// cache-state encoding) is refused with a version error, dropped from
// the store, and rebuilt cold; the rebuilt profile is persisted at the
// current version.
func TestProfileOldPayloadVersionRebuilt(t *testing.T) {
	cfg := testCfg()
	const total = 21000
	orig, err := BuildProfile(cfg, testSources(2, total), 2000)
	if err != nil {
		t.Fatal(err)
	}
	old := orig.Encode()
	old[0] = profilePayloadVersion - 1
	if _, err := DecodeProfile(old, testSources(2, total)); err == nil || !strings.Contains(err.Error(), "payload v") {
		t.Fatalf("old payload version: err = %v, want a version error", err)
	}

	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.ProfileKey(cfg, "phasey")
	if err := st.Put(key, checkpoint.Entry{Interval: uint64(len(orig.Intervals)), Payload: old}); err != nil {
		t.Fatal(err)
	}
	codec := checkpoint.ProfileCodec[*Profile]{
		Encode: func(p *Profile) []byte { return p.Encode() },
		Decode: func(b []byte) (*Profile, error) { return DecodeProfile(b, testSources(2, total)) },
	}
	prof, built, err := checkpoint.LoadOrBuildProfile(st, key,
		func(p *Profile) uint64 { return uint64(len(p.Intervals)) }, codec,
		func() (*Profile, error) { return BuildProfile(cfg, testSources(2, total), 2000) })
	if err != nil {
		t.Fatal(err)
	}
	if !built || st.Metrics().Restores() != 0 || st.Metrics().Corrupt() != 1 {
		t.Fatalf("old-version profile was not rebuilt cold: built=%v restores=%d corrupt=%d",
			built, st.Metrics().Restores(), st.Metrics().Corrupt())
	}
	if !reflect.DeepEqual(prof.Intervals, orig.Intervals) {
		t.Fatal("rebuilt profile diverged from the original")
	}
	ent, err := st.Latest(key)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Payload[0] != profilePayloadVersion {
		t.Fatalf("re-persisted profile has payload version %d, want %d", ent.Payload[0], profilePayloadVersion)
	}
}
