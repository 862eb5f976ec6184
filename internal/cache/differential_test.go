package cache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/checkpoint/wire"
)

// The differential reference: a deliberately naive cache in the shape of
// a textbook list-per-set simulator. Each set is a slice of resident
// blocks kept in recency order (LRU first, MRU last); a touch removes a
// block and appends it, an eviction removes it. Nothing is packed, no
// bitmask or rank array exists, and every lookup is a linear scan, so it
// shares no data-structure code with Cache. The replacement rules are
// restated from their specifications (Section III-B's loop-block-aware
// priority, SRRIP's ageing scan).

// refBlock is one resident block of the reference.
type refBlock struct {
	way                 int
	tag                 uint64
	dirty, loop, shared bool
	rrpv                uint8
}

// refCache is the reference model.
type refCache struct {
	sets         [][]refBlock // per set, LRU first
	ways         int
	rrip         bool
	hits, misses uint64
}

func newRef(sets, ways int, rrip bool) *refCache {
	return &refCache{sets: make([][]refBlock, sets), ways: ways, rrip: rrip}
}

func (r *refCache) setOf(block uint64) int { return int(block % uint64(len(r.sets))) }

// find returns the list index of the block at way, or -1.
func (r *refCache) find(set, way int) int {
	for i, b := range r.sets[set] {
		if b.way == way {
			return i
		}
	}
	return -1
}

func (r *refCache) at(set, way int) *refBlock {
	if i := r.find(set, way); i >= 0 {
		return &r.sets[set][i]
	}
	return nil
}

func (r *refCache) probe(block uint64) int {
	for _, b := range r.sets[r.setOf(block)] {
		if b.tag == block {
			return b.way
		}
	}
	return -1
}

func (r *refCache) touch(set, way int) {
	i := r.find(set, way)
	if i < 0 {
		return
	}
	b := r.sets[set][i]
	r.sets[set] = append(r.sets[set][:i], r.sets[set][i+1:]...)
	if r.rrip {
		b.rrpv = 0
	}
	r.sets[set] = append(r.sets[set], b)
}

func (r *refCache) lookup(block uint64) int {
	w := r.probe(block)
	if w < 0 {
		r.misses++
		return -1
	}
	r.hits++
	r.touch(r.setOf(block), w)
	return w
}

func (r *refCache) evict(set, way int) (Line, bool) {
	i := r.find(set, way)
	if i < 0 {
		return Line{}, false
	}
	b := r.sets[set][i]
	r.sets[set] = append(r.sets[set][:i], r.sets[set][i+1:]...)
	return Line{Tag: b.tag, Valid: true, Dirty: b.dirty, Loop: b.loop, Shared: b.shared}, true
}

func (r *refCache) insert(set, way int, block uint64, dirty, loop, shared bool) {
	r.evict(set, way)
	b := refBlock{way: way, tag: block, dirty: dirty, loop: loop, shared: shared}
	if r.rrip {
		b.rrpv = rrpvInsert
	}
	r.sets[set] = append(r.sets[set], b)
}

func (r *refCache) fills() int {
	n := 0
	for _, s := range r.sets {
		n += len(s)
	}
	return n
}

// invalidIn returns the lowest unoccupied way in [lo, hi), or -1.
func (r *refCache) invalidIn(set, lo, hi int) int {
	for w := lo; w < hi; w++ {
		if r.find(set, w) < 0 {
			return w
		}
	}
	return -1
}

// lruVictim: an invalid way, else the least recently used way in range;
// with loopAware, the LRU non-loop-block is preferred over any
// loop-block (Fig. 9).
func (r *refCache) lruVictim(set, lo, hi int, loopAware bool) int {
	if w := r.invalidIn(set, lo, hi); w >= 0 {
		return w
	}
	if loopAware {
		for _, b := range r.sets[set] {
			if b.way >= lo && b.way < hi && !b.loop {
				return b.way
			}
		}
	}
	for _, b := range r.sets[set] {
		if b.way >= lo && b.way < hi {
			return b.way
		}
	}
	panic("reference: no victim")
}

// rripVictim scans the range in way order for the first way that is
// invalid or predicted distant (with loopAware, a distant loop-block is
// taken only when the range holds no non-loop-block); if none exists,
// every line in the range ages by one and the scan repeats.
func (r *refCache) rripVictim(set, lo, hi int, loopAware bool) int {
	for {
		firstLoop, allLoop := -1, true
		for w := lo; w < hi; w++ {
			b := r.at(set, w)
			if b == nil {
				return w
			}
			allLoop = allLoop && b.loop
			if b.rrpv < rrpvMax {
				continue
			}
			if !loopAware || !b.loop {
				return w
			}
			if firstLoop < 0 {
				firstLoop = w
			}
		}
		if loopAware && allLoop && firstLoop >= 0 {
			return firstLoop
		}
		for w := lo; w < hi; w++ {
			if b := r.at(set, w); b.rrpv < rrpvMax {
				b.rrpv++
			}
		}
	}
}

func (r *refCache) victim(set, lo, hi int, loopAware bool) int {
	if r.rrip {
		return r.rripVictim(set, lo, hi, loopAware)
	}
	return r.lruVictim(set, lo, hi, loopAware)
}

// mruLoop returns the most recently used loop-block's way in range.
func (r *refCache) mruLoop(set, lo, hi int) int {
	s := r.sets[set]
	for i := len(s) - 1; i >= 0; i-- {
		if b := s[i]; b.way >= lo && b.way < hi && b.loop {
			return b.way
		}
	}
	return -1
}

// fuzzInput doles out the fuzzer's bytes, yielding zeros once exhausted.
type fuzzInput struct {
	data []byte
	off  int
}

func (in *fuzzInput) more() bool { return in.off < len(in.data) }

func (in *fuzzInput) next() int {
	if in.off >= len(in.data) {
		return 0
	}
	in.off++
	return int(in.data[in.off-1])
}

// Differential ops, selected by the first byte of each record.
const (
	opLookup = iota
	opProbe
	opFill
	opEvict
	opInvalidate
	opTouch
	opSetFlag
	opMRULoop
	opInvalidWay
	opSnapshot
	opReset
	numOps
)

// FuzzCacheDifferential drives Cache and the list-per-set reference with
// the same random operation sequence on tiny geometries (1-4 sets, 1-8
// ways, optionally split into SRAM/STT-RAM regions, LRU or RRIP) and
// requires every observable to agree after every step: probe and lookup
// ways, evicted lines (including the victim InsertAt returns), every
// victim selector (the whole-set LRUVictim included), the MRU loop-block
// scan, invalid-way search, fill and hit/miss counts, per-line state, and
// the recency order of resident lines. Snapshot ops round-trip the cache
// through the wire codec (or a detached State) and continue on the
// restored copy, so codec loss shows up as a later divergence.
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 2, 5, 0, 0, 2, 9, 1, 3, 0, 5, 7, 1, 5})
	f.Add([]byte{2, 7, 7, 1, 2, 1, 3, 3, 2, 17, 2, 1, 2, 33, 1, 2, 9, 6, 3, 9, 7, 0, 2, 9, 0, 0})
	f.Add([]byte{1, 4, 5, 0, 2, 3, 1, 5, 2, 11, 3, 6, 2, 19, 0, 1, 6, 0, 1, 5, 7, 1, 9, 1, 2, 27, 2, 4})
	f.Add([]byte{2, 3, 3, 1, 2, 1, 0, 0, 2, 5, 1, 1, 2, 9, 1, 0, 2, 13, 0, 0, 2, 17, 3, 3, 4, 5, 2, 21, 1, 2, 8, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data: data}
		sets := 1 << (in.next() % 3)
		ways := 1 + in.next()%8
		sram := 0
		if s := in.next(); s&1 != 0 && ways > 1 {
			sram = 1 + (s>>1)%(ways-1)
		}
		repl := ReplLRU
		if in.next()&1 != 0 {
			repl = ReplRRIP
		}
		cfg := Config{Name: "fuzz", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64, SRAMWays: sram, Replacement: repl}
		c := New(cfg)
		ref := newRef(sets, ways, repl == ReplRRIP)
		tagSpace := uint64(3*sets*ways + 1)

		// span decodes a non-empty way range: the whole set, either
		// region of a split cache, or an arbitrary [lo, hi).
		span := func(x int) (int, int) {
			switch x % 4 {
			case 1:
				if sram > 0 {
					return 0, sram
				}
			case 2:
				if sram > 0 {
					return sram, ways
				}
			case 3:
				lo := (x >> 2) % ways
				return lo, lo + 1 + (x>>5)%(ways-lo)
			}
			return 0, ways
		}

		for step := 0; in.more() && step < 512; step++ {
			op := in.next() % numOps
			desc := fmt.Sprintf("step %d op %d", step, op)
			switch op {
			case opLookup:
				b := uint64(in.next()) % tagSpace
				if got, want := c.Lookup(b), ref.lookup(b); got != want {
					t.Fatalf("%s: Lookup(%d) = %d, reference %d", desc, b, got, want)
				}
			case opProbe:
				b := uint64(in.next()) % tagSpace
				if got, want := c.Probe(b), ref.probe(b); got != want {
					t.Fatalf("%s: Probe(%d) = %d, reference %d", desc, b, got, want)
				}
			case opFill:
				b := uint64(in.next()) % tagSpace
				sel, flags := in.next(), in.next()
				if c.Probe(b) >= 0 {
					continue
				}
				set := c.SetOf(b)
				lo, hi := span(sel >> 2)
				var got int
				switch sel % 4 {
				case 0:
					got = c.VictimIn(set, lo, hi)
				case 1:
					got = c.LoopAwareVictimIn(set, lo, hi)
				case 2:
					got = c.VictimInRange(set, lo, hi)
				case 3:
					got = c.LoopVictimInRange(set, lo, hi)
				}
				var want int
				switch sel % 4 {
				case 0, 1:
					want = ref.lruVictim(set, lo, hi, sel%4 == 1)
				case 2, 3:
					want = ref.victim(set, lo, hi, sel%4 == 3)
				}
				if got != want {
					t.Fatalf("%s: victim kind %d in [%d,%d) of set %d = %d, reference %d", desc, sel%4, lo, hi, set, got, want)
				}
				// InsertAt evicts the occupant itself and returns it,
				// flags included; an empty way returns the zero Line.
				dirty, loop, shared := flags&1 != 0, flags&2 != 0, flags&4 != 0
				gl := c.InsertAt(set, got, b, dirty, loop, shared)
				wl, _ := ref.evict(set, want)
				if !sameLine(gl, wl) {
					t.Fatalf("%s: InsertAt at (%d,%d) returned %+v, reference evicted %+v", desc, set, got, gl, wl)
				}
				ref.insert(set, want, b, dirty, loop, shared)
			case opEvict:
				set, way := in.next()%sets, in.next()%ways
				gl, gok := c.Evict(set, way)
				wl, wok := ref.evict(set, way)
				if gok != wok || (gok && !sameLine(gl, wl)) {
					t.Fatalf("%s: Evict(%d,%d) = %+v/%v, reference %+v/%v", desc, set, way, gl, gok, wl, wok)
				}
			case opInvalidate:
				b := uint64(in.next()) % tagSpace
				gl, gok := c.Invalidate(b)
				var wl Line
				var wok bool
				if w := ref.probe(b); w >= 0 {
					wl, wok = ref.evict(ref.setOf(b), w)
				}
				if gok != wok || (gok && !sameLine(gl, wl)) {
					t.Fatalf("%s: Invalidate(%d) = %+v/%v, reference %+v/%v", desc, b, gl, gok, wl, wok)
				}
			case opTouch:
				set, way := in.next()%sets, in.next()%ways
				if ref.find(set, way) < 0 {
					continue
				}
				c.Touch(set, way)
				ref.touch(set, way)
			case opSetFlag:
				set, way, x := in.next()%sets, in.next()%ways, in.next()
				b := ref.at(set, way)
				if b == nil {
					continue
				}
				v := x&4 != 0
				switch x % 3 {
				case 0:
					b.dirty = v
				case 1:
					b.loop = v
				case 2:
					b.shared = v
				}
				setFlag(c, set, way, x%3, v)
			case opMRULoop:
				set := in.next() % sets
				lo, hi := span(in.next())
				if got, want := c.MRULoopIn(set, lo, hi), ref.mruLoop(set, lo, hi); got != want {
					t.Fatalf("%s: MRU loop-block in [%d,%d) of set %d = %d, reference %d", desc, lo, hi, set, got, want)
				}
			case opInvalidWay:
				set := in.next() % sets
				lo, hi := span(in.next())
				if got, want := c.InvalidWayIn(set, lo, hi), ref.invalidIn(set, lo, hi); got != want {
					t.Fatalf("%s: InvalidWayIn(%d,%d,%d) = %d, reference %d", desc, set, lo, hi, got, want)
				}
			case opSnapshot:
				c = roundTrip(t, c, in.next()&1 != 0)
			case opReset:
				c.Reset()
				ref = newRef(sets, ways, repl == ReplRRIP)
			}
			compareState(t, desc, c, ref)
		}
	})
}

// roundTrip returns a fresh cache holding c's contents, carried either
// through the wire codec (encode, decode, re-encode byte-equal, restore)
// or through a detached in-memory State.
func roundTrip(t *testing.T, c *Cache, viaWire bool) *Cache {
	t.Helper()
	fresh := New(c.Config())
	if !viaWire {
		fresh.Restore(c.Snapshot(nil))
		return fresh
	}
	var e wire.Encoder
	c.EncodeSnapshot(&e)
	enc := append([]byte(nil), e.Bytes()...)
	s, err := DecodeSnapshotState(wire.NewDecoder(enc))
	if err != nil {
		t.Fatalf("decoding a live snapshot: %v", err)
	}
	var again wire.Encoder
	s.Encode(&again)
	if !bytes.Equal(again.Bytes(), enc) {
		t.Fatal("decoded snapshot re-encodes to different bytes")
	}
	if err := fresh.RestoreSnapshot(wire.NewDecoder(enc)); err != nil {
		t.Fatalf("restoring a live snapshot: %v", err)
	}
	return fresh
}

// compareState checks every line, the counters, and the recency order
// of resident lines against the reference.
func compareState(t *testing.T, desc string, c *Cache, ref *refCache) {
	t.Helper()
	if c.FillCount() != ref.fills() {
		t.Fatalf("%s: FillCount = %d, reference %d", desc, c.FillCount(), ref.fills())
	}
	if c.Hits != ref.hits || c.Misses != ref.misses {
		t.Fatalf("%s: hits/misses = %d/%d, reference %d/%d", desc, c.Hits, c.Misses, ref.hits, ref.misses)
	}
	for set := range ref.sets {
		for way := 0; way < ref.ways; way++ {
			var want Line
			var rrpv uint8
			if b := ref.at(set, way); b != nil {
				want = Line{Tag: b.tag, Valid: true, Dirty: b.dirty, Loop: b.loop, Shared: b.shared}
				rrpv = b.rrpv
			}
			if got := c.Line(set, way); !sameLine(got, want) {
				t.Fatalf("%s: line (%d,%d) = %+v, reference %+v", desc, set, way, got, want)
			}
			if got := c.RRPV(set, way); got != rrpv {
				t.Fatalf("%s: RRPV(%d,%d) = %d, reference %d", desc, set, way, got, rrpv)
			}
		}
		// The whole-set LRU victim reads the valid mask and one order
		// byte; it must pick what the range scan and the reference pick.
		if got, scan, want := c.LRUVictim(set), c.VictimIn(set, 0, ref.ways), ref.lruVictim(set, 0, ref.ways, false); got != scan || got != want {
			t.Fatalf("%s: LRUVictim(%d) = %d, VictimIn %d, reference %d", desc, set, got, scan, want)
		}
		// Resident lines must rank in the reference's list order.
		for i := 1; i < len(ref.sets[set]); i++ {
			a, b := ref.sets[set][i-1].way, ref.sets[set][i].way
			if c.Stamp(set, a) >= c.Stamp(set, b) {
				t.Fatalf("%s: set %d ranks way %d at or above more recent way %d", desc, set, a, b)
			}
		}
	}
}

func sameLine(a, b Line) bool {
	return a.Tag == b.Tag && a.Valid == b.Valid && a.Dirty == b.Dirty && a.Loop == b.Loop && a.Shared == b.Shared
}

func setFlag(c *Cache, set, way, which int, v bool) {
	m := c.Meta(set, way)
	switch which {
	case 0:
		m.SetDirty(v)
	case 1:
		m.SetLoop(v)
	case 2:
		m.SetShared(v)
	}
}
