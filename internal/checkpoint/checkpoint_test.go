package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint/wire"
	"repro/internal/fault"
)

func testKey() Key {
	return Key{Kind: KindRun, Config: Digest("cfg"), Workload: Digest("wl")}
}

// encodeWithVersion builds a CRC-valid file image claiming an arbitrary
// format version — the shape a future build would leave behind.
func encodeWithVersion(ver uint64, k Key, e Entry) []byte {
	var enc wire.Encoder
	enc.Str(k.Kind)
	enc.Str(k.Config)
	enc.Str(k.Workload)
	enc.U64(e.Interval)
	enc.U64(e.Accesses)
	enc.Raw(e.Payload)
	out := append([]byte(nil), magic...)
	out = binary.AppendUvarint(out, ver)
	out = append(out, enc.Bytes()...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if _, err := st.Latest(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest on empty store: %v, want ErrNotFound", err)
	}
	ent := Entry{Interval: 3, Accesses: 30_000, Payload: []byte("machine-state")}
	if err := st.Put(k, ent); err != nil {
		t.Fatal(err)
	}
	got, err := st.Latest(k)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != ent.Interval || got.Accesses != ent.Accesses || string(got.Payload) != string(ent.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, ent)
	}
	if _, err := st.Get(k, 3); err != nil {
		t.Fatalf("Get exact interval: %v", err)
	}
	if _, err := st.Get(k, 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing interval: %v, want ErrNotFound", err)
	}
	if m := st.Metrics(); m.Writes() != 1 || m.BytesWritten() == 0 {
		t.Fatalf("metrics after one write: writes=%d bytes=%d", m.Writes(), m.BytesWritten())
	}
}

// TestStorePrunesOlderIntervals checks that Put keeps only the newest
// interval per key: older files are removed, other keys untouched.
func TestStorePrunesOlderIntervals(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	k := testKey()
	other := Key{Kind: "other", Config: k.Config, Workload: k.Workload}
	if err := st.Put(other, Entry{Interval: 1, Payload: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	for iv := uint64(1); iv <= 4; iv++ {
		if err := st.Put(k, Entry{Interval: iv, Accesses: iv * 10, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+fileExt))
	if len(files) != 2 { // one per key
		t.Fatalf("expected 2 files after pruning, got %v", files)
	}
	ent, err := st.Latest(k)
	if err != nil || ent.Interval != 4 {
		t.Fatalf("Latest after pruning: %+v, %v", ent, err)
	}
	if _, err := st.Latest(other); err != nil {
		t.Fatalf("pruning removed another key's entry: %v", err)
	}
}

// TestStoreQuarantinesCorruptEntries flips a byte in a stored file and
// checks the typed error, the metric, the .bad rename, and that Latest
// walks past the damage to an older valid entry.
func TestStoreQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	k := testKey()
	if err := st.Put(k, Entry{Interval: 2, Payload: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	// Put only prunes strictly older intervals, so backfilling interval 1
	// leaves both on disk — the fallback target for the walk below.
	if err := st.Put(k, Entry{Interval: 1, Payload: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	newest := st.fileName(k, 2)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Get(k, 2); !isCorrupt(err) {
		t.Fatalf("Get corrupt entry: %v, want *ErrCorrupt", err)
	}
	if st.Metrics().Corrupt() != 1 {
		t.Fatalf("corrupt metric = %d, want 1", st.Metrics().Corrupt())
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatal("corrupt file was not quarantined")
	}
	bad, _ := filepath.Glob(filepath.Join(dir, "*"+badExt))
	if len(bad) != 1 {
		t.Fatalf("expected one quarantined file, got %v", bad)
	}
	// Latest must now fall back to the surviving interval 1.
	ent, err := st.Latest(k)
	if err != nil || ent.Interval != 1 || string(ent.Payload) != "old" {
		t.Fatalf("Latest after quarantine: %+v, %v", ent, err)
	}
}

// TestStoreVersionMismatchIsTyped rewrites a valid file with a future
// format version (CRC intact) and checks the distinct typed error.
func TestStoreVersionMismatchIsTyped(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	k := testKey()
	if err := st.Put(k, Entry{Interval: 1, Payload: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	raw := encodeWithVersion(99, k, Entry{Interval: 1, Payload: []byte("v")})
	if err := os.WriteFile(st.fileName(k, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := st.Get(k, 1)
	var vm *ErrVersionMismatch
	if !errors.As(err, &vm) || vm.Got != 99 {
		t.Fatalf("Get future-version entry: %v, want *ErrVersionMismatch{Got:99}", err)
	}
	if st.Metrics().VersionMismatches() != 1 {
		t.Fatalf("version mismatch metric = %d, want 1", st.Metrics().VersionMismatches())
	}
	if _, err := st.Latest(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest after quarantining the only entry: %v, want ErrNotFound", err)
	}
}

// TestStoreKeyMismatchIsCorrupt copies a valid file onto another key's
// filename; the embedded-key echo must reject it as corrupt.
func TestStoreKeyMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	k := testKey()
	if err := st.Put(k, Entry{Interval: 1, Payload: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	impostor := Key{Kind: KindRun, Config: Digest("evil"), Workload: k.Workload}
	src, _ := os.ReadFile(st.fileName(k, 1))
	if err := os.WriteFile(st.fileName(impostor, 1), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(impostor, 1); !isCorrupt(err) {
		t.Fatalf("Get renamed entry: %v, want *ErrCorrupt", err)
	}
}

func TestStoreWriteFaultInjection(t *testing.T) {
	st, _ := Open(t.TempDir())
	if err := fault.Arm(fault.Spec{Point: fault.PointCheckpointWrite, Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	k := testKey()
	if err := st.Put(k, Entry{Interval: 1, Payload: []byte("v")}); err == nil {
		t.Fatal("Put under an armed write fault did not error")
	}
	if st.Metrics().WriteErrors() != 1 {
		t.Fatalf("write error metric = %d, want 1", st.Metrics().WriteErrors())
	}
	fault.Reset()
	if err := st.Put(k, Entry{Interval: 1, Payload: []byte("v")}); err != nil {
		t.Fatalf("Put after disarm: %v", err)
	}
}

func TestStoreRejectsUnsafeDigests(t *testing.T) {
	st, _ := Open(t.TempDir())
	bad := Key{Kind: KindRun, Config: "../../etc", Workload: Digest("wl")}
	if err := st.Put(bad, Entry{Interval: 1, Payload: []byte("v")}); err == nil {
		t.Fatal("Put with a path-traversal digest did not error")
	}
	if _, err := st.Latest(bad); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest with unsafe digest: %v, want ErrNotFound", err)
	}
}

func isCorrupt(err error) bool {
	var c *ErrCorrupt
	return errors.As(err, &c)
}

// TestDecodeCorruptionIsAlwaysTyped is the deterministic companion to
// FuzzCheckpointRoundTrip: every single-bit flip and every truncation of
// a valid file fails with *ErrCorrupt or *ErrVersionMismatch. The CRC
// covers every byte, so no flip can decode silently; nothing panics.
func TestDecodeCorruptionIsAlwaysTyped(t *testing.T) {
	k := testKey()
	ent := Entry{Interval: 7, Accesses: 70_000, Payload: []byte("payload-bytes-for-corruption")}
	raw := encodeFile(k, ent)

	check := func(t *testing.T, mut []byte) {
		t.Helper()
		_, _, err := decodeFile("test", mut)
		if err == nil {
			t.Fatal("mutated file decoded without error")
		}
		var c *ErrCorrupt
		var vm *ErrVersionMismatch
		if !errors.As(err, &c) && !errors.As(err, &vm) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}

	for i := range raw {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			check(t, mut)
		}
	}
	for n := 0; n < len(raw); n++ {
		check(t, append([]byte(nil), raw[:n]...))
	}
	// Appended garbage breaks the CRC-at-end framing too.
	check(t, append(append([]byte(nil), raw...), 0xEE))
}

// FuzzCheckpointRoundTrip mirrors the PR 3 trace-codec fuzz: arbitrary
// bytes must never panic the decoder, and every failure must be typed.
// Valid inputs (seeded from encodeFile) must round-trip exactly.
func FuzzCheckpointRoundTrip(f *testing.F) {
	k := testKey()
	f.Add(encodeFile(k, Entry{Interval: 1, Accesses: 10, Payload: []byte("seed")}))
	f.Add(encodeFile(Key{Kind: "other", Config: Digest("c"), Workload: Digest("w")},
		Entry{Interval: 0, Accesses: 0, Payload: nil}))
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		gk, ent, err := decodeFile("fuzz", data)
		if err != nil {
			var c *ErrCorrupt
			var vm *ErrVersionMismatch
			if !errors.As(err, &c) && !errors.As(err, &vm) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must re-encode to the identical bytes:
		// the format has no slack for smuggled content.
		if got := encodeFile(gk, ent); string(got) != string(data) {
			t.Fatalf("decode/encode not idempotent")
		}
	})
}

func TestDigestJSONStability(t *testing.T) {
	type cfg struct{ A, B int }
	if DigestJSON(cfg{1, 2}) != DigestJSON(cfg{1, 2}) {
		t.Fatal("DigestJSON not deterministic")
	}
	if DigestJSON(cfg{1, 2}) == DigestJSON(cfg{2, 1}) {
		t.Fatal("DigestJSON ignored field values")
	}
	if len(Digest("a", "b")) != 16 {
		t.Fatalf("Digest length: %q", Digest("a", "b"))
	}
	if Digest("ab") == Digest("a", "b") {
		t.Fatal("Digest part separator is ambiguous")
	}
	if !strings.Contains(testKey().String(), "/") {
		t.Fatal("Key.String has no separators")
	}
}

// TestObserver: store lifecycle notifications fire for writes, write
// errors, corruption, and restore notes.
func TestObserver(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type note struct{ op, key, detail string }
	var notes []note
	s.SetObserver(func(op, key, detail string, err error) {
		notes = append(notes, note{op, key, detail})
	})
	k := testKey()
	if err := s.Put(k, Entry{Interval: 3, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].op != "write" || notes[0].key != k.String() || notes[0].detail != "interval=3" {
		t.Fatalf("after Put: %+v", notes)
	}
	// Corrupt the file on disk; the next read must notify "corrupt".
	ents := s.entriesFor(k)
	if len(ents) != 1 {
		t.Fatalf("entries = %+v", ents)
	}
	data, _ := os.ReadFile(ents[0].path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(ents[0].path, data, 0o644)
	if _, err := s.Latest(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest on corrupt = %v", err)
	}
	if notes[len(notes)-1].op != "corrupt" {
		t.Fatalf("after corrupt read: %+v", notes)
	}
	s.NoteRestored(7)
	s.NoteRestoreFailed()
	if notes[len(notes)-1].op != "restore_failed" || notes[len(notes)-2].op != "restore" {
		t.Fatalf("after notes: %+v", notes)
	}
	s.SetObserver(nil)
	s.NoteRestored(1)
	if notes[len(notes)-1].op != "restore_failed" {
		t.Fatalf("observer fired after removal: %+v", notes)
	}
}
