package cache

import (
	"strings"
	"testing"

	"repro/internal/checkpoint/wire"
)

// warmState returns a 4-set, 4-way cache with a mix of valid and invalid
// lines and the detached State of its contents.
func warmState(t *testing.T) (*Cache, *State) {
	t.Helper()
	c := New(Config{Name: "p", SizeBytes: 4 * 4 * 64, Ways: 4, BlockBytes: 64, Replacement: ReplRRIP})
	for b := uint64(1); b <= 13; b++ {
		set := c.SetOf(b)
		w := c.VictimInRange(set, 0, c.Ways())
		c.Evict(set, w)
		c.InsertAt(set, w, b, b%3 == 0, b%2 == 0, false)
	}
	c.Meta(c.SetOf(5), c.Probe(5)).SetShared(true)
	c.Invalidate(6)
	c.Lookup(7)
	c.Lookup(99)
	return c, c.Snapshot(nil)
}

func encodeState(s *State) []byte {
	var e wire.Encoder
	s.Encode(&e)
	return e.Bytes()
}

// TestSnapshotRejectsInconsistentState pins the structural validation of
// decoded snapshots. Each corruption keeps the wire framing intact (a
// checkpoint's CRC would pass), so only the structure check can catch
// it. A duplicated recency-order byte used to restore cleanly and then
// panic mid-run in VictimIn.
func TestSnapshotRejectsInconsistentState(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *State)
		want    string
	}{
		{"duplicated order byte", func(s *State) { s.order[1] = s.order[0] }, "permutation"},
		{"order byte out of range", func(s *State) { s.order[2] = 4 }, "permutation"},
		{"short state bytes", func(s *State) { s.meta = s.meta[:len(s.meta)-1] }, "state bytes"},
		{"short order", func(s *State) { s.order = s.order[:len(s.order)-4] }, "order bytes"},
		{"tags not a multiple of sets", func(s *State) { s.tags = s.tags[:len(s.tags)-1] }, "tags for"},
		{"no sets", func(s *State) { s.valid = nil }, "tags for"},
		{"fill count", func(s *State) { s.fills++ }, "fill count"},
		{"valid bit beyond ways", func(s *State) { s.valid[0] |= 1 << 4 }, "beyond way"},
		{"invalid way with tag", func(s *State) { s.tags[invalidIndex(t, s)] = 42 }, "invalid line"},
		{"invalid way with state", func(s *State) { s.meta[invalidIndex(t, s)] = uint8(metaDirty) }, "invalid line"},
		{"undefined state bit", func(s *State) { s.meta[0] |= 1 }, "undefined bits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, s := warmState(t)
			tc.corrupt(s)
			enc := encodeState(s)
			if _, err := DecodeSnapshotState(wire.NewDecoder(enc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeSnapshotState error = %v, want one mentioning %q", err, tc.want)
			}
			before := encodeState(c.Snapshot(nil))
			if err := c.RestoreSnapshot(wire.NewDecoder(enc)); err == nil {
				t.Fatal("RestoreSnapshot accepted an inconsistent snapshot")
			}
			if string(encodeState(c.Snapshot(nil))) != string(before) {
				t.Fatal("a rejected RestoreSnapshot modified the cache")
			}
		})
	}
}

// invalidIndex returns the index of some invalid line in s.
func invalidIndex(t *testing.T, s *State) int {
	ways := len(s.tags) / len(s.valid)
	for set, vm := range s.valid {
		for w := 0; w < ways; w++ {
			if vm&(1<<uint(w)) == 0 {
				return set*ways + w
			}
		}
	}
	t.Fatal("warm state has no invalid line")
	return 0
}

// TestSnapshotRoundTripExact checks that a valid snapshot survives the
// codec and restores the exact live state, including RRPVs and the shared
// bit, and that the encoding is one state byte per line.
func TestSnapshotRoundTripExact(t *testing.T) {
	c, s := warmState(t)
	enc := encodeState(s)
	fresh := New(c.Config())
	if err := fresh.RestoreSnapshot(wire.NewDecoder(enc)); err != nil {
		t.Fatal(err)
	}
	for set := 0; set < c.NumSets(); set++ {
		for w := 0; w < c.Ways(); w++ {
			if fresh.Line(set, w) != c.Line(set, w) || fresh.RRPV(set, w) != c.RRPV(set, w) {
				t.Fatalf("line (%d,%d) = %+v rrpv %d, want %+v rrpv %d", set, w,
					fresh.Line(set, w), fresh.RRPV(set, w), c.Line(set, w), c.RRPV(set, w))
			}
		}
	}
	if fresh.FillCount() != c.FillCount() || fresh.Hits != c.Hits || fresh.Misses != c.Misses {
		t.Fatal("counters did not round-trip")
	}
	// 16 lines: raw order and state bytes, one per line each, plus at
	// most one varint byte per small tag and valid word.
	if max := 16 + 16 + 16 + 4 + 16; len(enc) > max {
		t.Fatalf("snapshot of 16 lines encodes to %d bytes, want at most %d", len(enc), max)
	}
}

// TestRestoreChecksEveryArray pins the in-memory Restore geometry check:
// every array length must match, not just tags and valid.
func TestRestoreChecksEveryArray(t *testing.T) {
	for _, shrink := range []func(s *State){
		func(s *State) { s.order = s.order[:len(s.order)-1] },
		func(s *State) { s.meta = s.meta[:len(s.meta)-1] },
	} {
		c, s := warmState(t)
		shrink(s)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Restore of a mismatched snapshot did not panic")
				}
			}()
			c.Restore(s)
		}()
	}
}

func TestMetaBits(t *testing.T) {
	var m Meta
	m.SetDirty(true)
	m.SetLoop(true)
	m.SetShared(true)
	m.setRRPV(rrpvMax)
	if !m.Dirty() || !m.Loop() || !m.Shared() || m.rrpv() != rrpvMax {
		t.Fatalf("meta %#x lost a bit", uint8(m))
	}
	m.SetLoop(false)
	m.setRRPV(1)
	if !m.Dirty() || m.Loop() || !m.Shared() || m.rrpv() != 1 {
		t.Fatalf("meta %#x: clearing one bit disturbed another", uint8(m))
	}
	if m&1 != 0 || m&^metaUsed != 0 {
		t.Fatalf("meta %#x uses an undefined bit", uint8(m))
	}
}
