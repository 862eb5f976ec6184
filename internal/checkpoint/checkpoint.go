// Package checkpoint implements the durable, digest-keyed, crash-safe
// on-disk store behind resumable simulations.
//
// Every entry is one file:
//
//	magic "LAPCKPT1" (8 bytes)
//	format version   (uvarint)
//	kind             (length-prefixed string, e.g. "run")
//	config digest    (length-prefixed string)
//	workload digest  (length-prefixed string)
//	interval index   (uvarint)
//	accesses         (uvarint)
//	payload          (length-prefixed bytes, opaque to the store)
//	CRC-32 (IEEE)    (4 bytes LE, over everything above)
//
// Files are written to a temp file in the store directory, fsynced,
// and atomically renamed into place, so a crash mid-write can never
// publish a torn entry. Readers validate magic and CRC before parsing
// anything else, so any bit flip or truncation surfaces as the typed
// *ErrCorrupt — *ErrVersionMismatch is reserved for intact files
// written by a different format version. Corrupt files are quarantined
// (renamed to *.bad) rather than trusted or deleted, and every
// durability failure degrades to cold start: the store reports errors
// and counts them in Metrics, but callers never fail a run because a
// checkpoint did.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/checkpoint/wire"
	"repro/internal/fault"
)

// FormatVersion is the on-disk format this build reads and writes.
const FormatVersion = 1

const (
	magic   = "LAPCKPT1"
	fileExt = ".ckpt"
	badExt  = ".bad"
)

// KindRun is the entry kind of exact-run machine snapshots, the only
// kind the simulator writes. The store treats kinds opaquely.
const KindRun = "run"

// ErrCorrupt reports a checkpoint file that failed validation: bad
// magic, CRC mismatch, truncation, or a malformed field. The file has
// been quarantined when Path is non-empty.
type ErrCorrupt struct {
	Path   string
	Reason string
	Err    error
}

func (e *ErrCorrupt) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("checkpoint: corrupt %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("checkpoint: corrupt %s: %s", e.Path, e.Reason)
}

func (e *ErrCorrupt) Unwrap() error { return e.Err }

// ErrVersionMismatch reports an intact (CRC-valid) file written by a
// different format version. It degrades to cold start like corruption,
// but is counted separately: it means a version skew, not bit rot.
type ErrVersionMismatch struct {
	Path string
	Got  uint64
}

func (e *ErrVersionMismatch) Error() string {
	return fmt.Sprintf("checkpoint: %s is format v%d, this build reads v%d", e.Path, e.Got, FormatVersion)
}

// ErrNotFound reports that no valid entry exists for a key.
var ErrNotFound = errors.New("checkpoint: no valid entry")

// Key identifies a checkpoint stream: what kind of artifact, under
// which machine configuration, for which workload. Digest the inputs
// with DigestConfig/Digest; keys become filenames, so the store
// requires digest-safe (hex) strings.
type Key struct {
	Kind     string
	Config   string
	Workload string
}

func (k Key) String() string { return k.Kind + "/" + k.Config + "/" + k.Workload }

// Entry is one stored snapshot: the interval ordinal it was taken at,
// the access count executed by then, and the opaque payload.
type Entry struct {
	Interval uint64
	Accesses uint64
	Payload  []byte
}

// Observer receives checkpoint lifecycle notifications. op is one of
// "write", "write_error", "restore", "restore_failed", "corrupt",
// "version_mismatch"; key is the entry's Key.String() where known ("",
// e.g., for restore notes recorded after the store handed the payload
// out). Observers run on the calling goroutine and must not block.
type Observer func(op, key, detail string, err error)

// Store is a directory of checkpoint files. All methods are safe for
// concurrent use (atomic renames give per-file atomicity; the metrics
// are atomic counters).
type Store struct {
	dir string
	met Metrics
	obs atomic.Pointer[Observer]
}

// SetObserver installs (or, with nil, removes) the store's lifecycle
// observer. Safe to call concurrently with store use.
func (s *Store) SetObserver(fn Observer) {
	if fn == nil {
		s.obs.Store(nil)
		return
	}
	s.obs.Store(&fn)
}

func (s *Store) notify(op, key, detail string, err error) {
	if fn := s.obs.Load(); fn != nil {
		(*fn)(op, key, detail, err)
	}
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// digestSafe guards against keys that would escape the store
// directory; digests are always lowercase hex, so anything else is a
// caller bug.
func digestSafe(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		ok := r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_'
		if !ok {
			return false
		}
	}
	return true
}

// fileName is "<kind>-<config>-<workload>-<interval>.ckpt".
func (s *Store) fileName(k Key, interval uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%s-%s-%016d%s", k.Kind, k.Config, k.Workload, interval, fileExt))
}

// encodeFile serializes one entry into the on-disk format.
func encodeFile(k Key, e Entry) []byte {
	var enc wire.Encoder
	enc.Str(k.Kind)
	enc.Str(k.Config)
	enc.Str(k.Workload)
	enc.U64(e.Interval)
	enc.U64(e.Accesses)
	enc.Raw(e.Payload)
	body := enc.Bytes()

	out := make([]byte, 0, len(magic)+2+len(body)+4)
	out = append(out, magic...)
	out = binary.AppendUvarint(out, FormatVersion)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}

// decodeFile parses and validates one checkpoint file image. Every
// failure is typed: *ErrCorrupt for anything the CRC or parser rejects,
// *ErrVersionMismatch for intact files of another format version. path
// is used only for error context.
func decodeFile(path string, data []byte) (Key, Entry, error) {
	corrupt := func(reason string, err error) (Key, Entry, error) {
		return Key{}, Entry{}, &ErrCorrupt{Path: path, Reason: reason, Err: err}
	}
	if len(data) < len(magic)+1+4 {
		return corrupt(fmt.Sprintf("file too short (%d bytes)", len(data)), nil)
	}
	if string(data[:len(magic)]) != magic {
		return corrupt("bad magic", nil)
	}
	// CRC first: it covers the version bytes too, so a bit flip anywhere
	// is always ErrCorrupt; ErrVersionMismatch means a genuinely
	// different (intact) format.
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return corrupt(fmt.Sprintf("CRC mismatch (file %08x, computed %08x)", sum, got), nil)
	}
	ver, n := binary.Uvarint(body[len(magic):])
	if n <= 0 {
		return corrupt("truncated version", nil)
	}
	if ver != FormatVersion {
		return Key{}, Entry{}, &ErrVersionMismatch{Path: path, Got: ver}
	}
	d := wire.NewDecoder(body[len(magic)+n:])
	k := Key{Kind: d.Str(), Config: d.Str(), Workload: d.Str()}
	e := Entry{Interval: d.U64(), Accesses: d.U64(), Payload: d.Raw()}
	if err := d.Err(); err != nil {
		return corrupt("malformed header", err)
	}
	if len(d.Rest()) != 0 {
		return corrupt(fmt.Sprintf("%d trailing bytes", len(d.Rest())), nil)
	}
	return k, e, nil
}

// Put durably stores one entry: temp file in the store directory,
// fsync, atomic rename. Older intervals of the same key are then
// pruned best-effort (the rename already published the newer one, so a
// crash between the two steps costs only disk space). Failures are
// counted and returned; callers are expected to log-and-continue.
func (s *Store) Put(k Key, e Entry) error {
	err := s.put(k, e)
	if err != nil {
		s.met.writeErrors.Add(1)
		s.notify("write_error", k.String(), "", err)
	} else {
		s.notify("write", k.String(), fmt.Sprintf("interval=%d", e.Interval), nil)
	}
	return err
}

func (s *Store) put(k Key, e Entry) error {
	if !digestSafe(k.Kind) || !digestSafe(k.Config) || !digestSafe(k.Workload) {
		return fmt.Errorf("checkpoint: key %q is not digest-safe", k)
	}
	if err := fault.Inject(fault.PointCheckpointWrite, k.String()); err != nil {
		return err
	}
	data := encodeFile(k, e)
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: closing %s: %w", tmp, err)
	}
	dst := s.fileName(k, e.Interval)
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: publishing %s: %w", dst, err)
	}
	s.met.writes.Add(1)
	s.met.bytesWritten.Add(uint64(len(data)))
	// Prune superseded intervals; best-effort by design.
	for _, ent := range s.entriesFor(k) {
		if ent.interval < e.Interval {
			os.Remove(ent.path)
		}
	}
	return nil
}

type diskEntry struct {
	path     string
	interval uint64
}

// entriesFor lists the on-disk intervals for a key, newest first.
func (s *Store) entriesFor(k Key) []diskEntry {
	prefix := fmt.Sprintf("%s-%s-%s-", k.Kind, k.Config, k.Workload)
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []diskEntry
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, fileExt) {
			continue
		}
		numeric := strings.TrimSuffix(strings.TrimPrefix(name, prefix), fileExt)
		iv, err := strconv.ParseUint(numeric, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, diskEntry{path: filepath.Join(s.dir, name), interval: iv})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].interval > out[j].interval })
	return out
}

// quarantine renames a rejected file to *.bad so it is never trusted
// again but remains available for postmortem.
func (s *Store) quarantine(path string) {
	os.Rename(path, path+badExt)
}

// read loads and validates one file, quarantining and counting it on
// failure.
func (s *Store) read(k Key, path string) (Entry, error) {
	if err := fault.Inject(fault.PointCheckpointRead, k.String()); err != nil {
		s.met.corrupt.Add(1)
		s.notify("corrupt", k.String(), path, err)
		s.quarantine(path)
		return Entry{}, &ErrCorrupt{Path: path, Reason: "injected read fault", Err: err}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	gotKey, e, err := decodeFile(path, data)
	if err != nil {
		var vm *ErrVersionMismatch
		if errors.As(err, &vm) {
			s.met.versionMismatch.Add(1)
			s.notify("version_mismatch", k.String(), path, err)
		} else {
			s.met.corrupt.Add(1)
			s.notify("corrupt", k.String(), path, err)
		}
		s.quarantine(path)
		return Entry{}, err
	}
	if gotKey != k {
		// The filename promised one key, the content another: stale or
		// tampered. Quarantine like any other corruption.
		s.met.corrupt.Add(1)
		s.notify("corrupt", k.String(), path, nil)
		s.quarantine(path)
		return Entry{}, &ErrCorrupt{Path: path, Reason: fmt.Sprintf("key mismatch (file says %q, expected %q)", gotKey, k)}
	}
	s.met.bytesRead.Add(uint64(len(data)))
	return e, nil
}

// Get loads the entry at one specific interval.
func (s *Store) Get(k Key, interval uint64) (Entry, error) {
	path := s.fileName(k, interval)
	if _, err := os.Stat(path); err != nil {
		return Entry{}, ErrNotFound
	}
	return s.read(k, path)
}

// Latest returns the newest valid entry for a key, walking backwards
// past (and quarantining) corrupt or mismatched files. ErrNotFound
// means a clean cold start; any entry returned passed CRC validation.
func (s *Store) Latest(k Key) (Entry, error) {
	for _, de := range s.entriesFor(k) {
		e, err := s.read(k, de.path)
		if err == nil {
			return e, nil
		}
	}
	return Entry{}, ErrNotFound
}

// NoteRestored records a successful resume that skipped intervalsSaved
// checkpoint intervals of simulation work.
func (s *Store) NoteRestored(intervalsSaved uint64) {
	s.met.restores.Add(1)
	s.met.intervalsSaved.Add(intervalsSaved)
	s.notify("restore", "", fmt.Sprintf("intervals_saved=%d", intervalsSaved), nil)
}

// NoteRestoreFailed records a payload that passed CRC but could not be
// applied to a machine (shape or version drift inside the payload).
func (s *Store) NoteRestoreFailed() {
	s.met.corrupt.Add(1)
	s.notify("restore_failed", "", "", nil)
}

// Drop removes every on-disk interval for a key (used after a payload
// proves unusable, so the next run does not retry it).
func (s *Store) Drop(k Key) {
	for _, de := range s.entriesFor(k) {
		s.quarantine(de.path)
	}
}

// Digest hashes a list of descriptor strings into a filename-safe hex
// key component.
func Digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// DigestJSON hashes the JSON encoding of a value (typically an
// already-normalized configuration struct) into a key component.
func DigestJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Configs are plain value structs; Marshal cannot fail on them.
		panic(fmt.Sprintf("checkpoint: encoding digest: %v", err))
	}
	return Digest(string(data))
}
