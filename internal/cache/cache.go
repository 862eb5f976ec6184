// Package cache implements the set-associative cache model used at every
// level of the simulated hierarchy: lines with valid/dirty/loop-bit state,
// LRU recency tracking, pluggable victim selection (including the paper's
// loop-block-aware policy), set-dueling, and the SRAM/STT-RAM way
// partitioning needed by hybrid LLCs.
//
// Addresses handled by this package are block numbers (byte address
// divided by the block size); the hierarchy layer performs the shift once
// at its edge.
//
// The backing store is a split layout tuned for the probe-dominated
// access pattern of the simulator hot loop. A packed per-set tag array and
// valid bitmask are scanned on every probe and are the only record of
// which block sits in which way. The remaining per-line state (dirty,
// loop and shared bits, RRPV) is one packed Meta byte per line, touched
// only on hits and evictions. Recency is a compact per-set LRU ordering
// (one byte per way), so a touch is a byte shuffle instead of a
// global-counter stamp write.
package cache

import (
	"fmt"
	"math/bits"
)

// Line is one cache block's contents as seen through the public API: a
// value assembled on demand from the packed arrays by Line, InsertAt,
// Evict and Invalidate, never stored. The simulator is trace-driven, so
// no data payload exists; Tag holds the full block number, which both
// identifies the block and lets a line be re-expanded to its address. Changing a
// resident line's flags goes through its Meta handle.
type Line struct {
	// Tag is the block number stored in this line.
	Tag uint64
	// Valid reports whether the line holds a block.
	Valid bool
	// Dirty reports whether the block has been modified since it was
	// filled or last written back.
	Dirty bool
	// Loop is the paper's loop-bit: set when the block was served by an
	// LLC hit and has not been written since (Section III-C, Fig. 10).
	Loop bool
	// Shared marks lines known to be replicated in a peer core's private
	// cache; used by the coherence model to trigger write invalidations.
	Shared bool
}

// Meta is one line's packed state byte: the dirty, loop and shared bits
// and the 2-bit RRIP re-reference prediction value. Bit 0 is reserved:
// validity lives only in the set's bitmask. An invalid line's Meta is
// always zero.
type Meta uint8

// Meta bit layout.
const (
	metaDirty  Meta = 1 << 1
	metaLoop   Meta = 1 << 2
	metaShared Meta = 1 << 3
	metaRRPVSh      = 4
	metaRRPV   Meta = rrpvMax << metaRRPVSh
	// metaUsed masks every defined bit; the rest must be zero.
	metaUsed = metaDirty | metaLoop | metaShared | metaRRPV
)

// Dirty reports the line's dirty bit.
func (m Meta) Dirty() bool { return m&metaDirty != 0 }

// Loop reports the line's loop-bit.
func (m Meta) Loop() bool { return m&metaLoop != 0 }

// Shared reports the line's shared bit.
func (m Meta) Shared() bool { return m&metaShared != 0 }

func (m Meta) rrpv() uint8 { return uint8(m&metaRRPV) >> metaRRPVSh }

func (m *Meta) set(bit Meta, v bool) {
	if v {
		*m |= bit
	} else {
		*m &^= bit
	}
}

// SetDirty sets or clears the line's dirty bit.
func (m *Meta) SetDirty(v bool) { m.set(metaDirty, v) }

// SetLoop sets or clears the line's loop-bit.
func (m *Meta) SetLoop(v bool) { m.set(metaLoop, v) }

// SetShared sets or clears the line's shared bit.
func (m *Meta) SetShared(v bool) { m.set(metaShared, v) }

func (m *Meta) setRRPV(v uint8) { *m = *m&^metaRRPV | Meta(v)<<metaRRPVSh }

// Config sizes a cache.
type Config struct {
	// Name labels the cache in stats output ("L1", "L2", "L3").
	Name string
	// SizeBytes is the total capacity. Must be a power-of-two multiple of
	// Ways*BlockBytes.
	SizeBytes int
	// Ways is the associativity (at most 64).
	Ways int
	// BlockBytes is the cache-block size (64 in the paper).
	BlockBytes int
	// SRAMWays, when positive, declares the first SRAMWays ways of every
	// set to be the SRAM region of a hybrid cache; the remainder is the
	// STT-RAM region. Zero means a single-technology cache.
	SRAMWays int
	// Replacement selects the base replacement family (LRU or RRIP).
	Replacement Replacement
}

// Cache is a set-associative cache. It exposes fine-grained operations
// (probe, touch, insert-at-way, invalidate) rather than a monolithic
// access method, because the inclusion controllers in internal/core need
// to orchestrate non-standard data flows such as LAP's
// "hit-without-invalidate" and the hybrid LLC's SRAM→STT migration.
type Cache struct {
	cfg     Config
	numSets int
	setMask uint64
	ways    int
	// tags is the packed per-set tag array: tags[set*ways+way] is the
	// block number when the corresponding valid bit is set.
	tags []uint64
	// valid holds one bitmask word per set; bit w is way w's valid bit.
	valid []uint64
	// order holds the per-set recency ordering: order[set*ways+k] is the
	// way at recency rank k, rank 0 being LRU and ways-1 being MRU.
	order []uint8
	// meta holds each line's packed state byte (see Meta), indexed like
	// tags.
	meta []uint8
	// fills is the running count of valid lines (see FillCount).
	fills int

	// Hits and Misses count Lookup outcomes.
	Hits, Misses uint64
}

// New builds a cache from cfg. It panics on a malformed configuration,
// since configurations are compile-time constants in this codebase.
func New(cfg Config) *Cache {
	if cfg.BlockBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %q: non-positive geometry: %+v", cfg.Name, cfg))
	}
	if cfg.Ways > 64 {
		panic(fmt.Sprintf("cache %q: %d ways exceeds the 64-way limit", cfg.Name, cfg.Ways))
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	if blocks%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %q: capacity not divisible into %d ways", cfg.Name, cfg.Ways))
	}
	sets := blocks / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %q: %d sets is not a power of two", cfg.Name, sets))
	}
	if cfg.SRAMWays < 0 || cfg.SRAMWays > cfg.Ways {
		panic(fmt.Sprintf("cache %q: SRAMWays %d out of range", cfg.Name, cfg.SRAMWays))
	}
	c := &Cache{
		cfg:     cfg,
		numSets: sets,
		setMask: uint64(sets - 1),
		ways:    cfg.Ways,
		tags:    make([]uint64, sets*cfg.Ways),
		valid:   make([]uint64, sets),
		order:   make([]uint8, sets*cfg.Ways),
		meta:    make([]uint8, sets*cfg.Ways),
	}
	c.resetOrder()
	return c
}

// resetOrder restores the identity recency ordering in every set.
func (c *Cache) resetOrder() {
	for s := 0; s < c.numSets; s++ {
		base := s * c.ways
		for w := 0; w < c.ways; w++ {
			c.order[base+w] = uint8(w)
		}
	}
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetOf maps a block number to its set index.
func (c *Cache) SetOf(block uint64) int { return int(block & c.setMask) }

// Line returns the contents of (set, way).
func (c *Cache) Line(set, way int) Line {
	if c.valid[set]&(1<<uint(way)) == 0 {
		return Line{}
	}
	return c.resident(set*c.ways + way)
}

// resident assembles the Line of the valid line at index idx.
func (c *Cache) resident(idx int) Line {
	m := Meta(c.meta[idx])
	return Line{Tag: c.tags[idx], Valid: true, Dirty: m.Dirty(), Loop: m.Loop(), Shared: m.Shared()}
}

// Meta returns the state byte of (set, way), the one handle through which
// a resident line's dirty, loop and shared bits change in place. It must
// only be used on a valid line.
func (c *Cache) Meta(set, way int) *Meta { return (*Meta)(&c.meta[set*c.ways+way]) }

// IsSRAMWay reports whether the given way lies in the SRAM region of a
// hybrid cache. For single-technology caches it is always false.
func (c *Cache) IsSRAMWay(way int) bool { return way < c.cfg.SRAMWays }

// SRAMWays returns the number of SRAM ways per set (0 for single-tech).
func (c *Cache) SRAMWays() int { return c.cfg.SRAMWays }

// probeIn scans the packed tag array of one set for block, returning the
// way index or -1. The per-line state bytes are not touched.
func (c *Cache) probeIn(set int, block uint64) int {
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	vm := c.valid[set]
	for w, t := range tags {
		if t == block && vm&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1
}

// Probe looks a block up without touching recency or hit/miss counters.
// It returns the way index, or -1 if the block is absent.
func (c *Cache) Probe(block uint64) int {
	return c.probeIn(int(block&c.setMask), block)
}

// Lookup probes for a block and, on a hit, promotes it to MRU. It updates
// the Hits/Misses counters and returns the way index or -1.
func (c *Cache) Lookup(block uint64) int {
	set := int(block & c.setMask)
	w := c.probeIn(set, block)
	if w < 0 {
		c.Misses++
		return -1
	}
	c.Hits++
	c.touchIn(set, w)
	return w
}

// touchIn promotes (set, way): MRU recency rank and, under RRIP, an
// immediate re-reference prediction.
func (c *Cache) touchIn(set, way int) {
	c.moveToMRU(set, way)
	if c.cfg.Replacement == ReplRRIP {
		c.Meta(set, way).setRRPV(rrpvPromote)
	}
}

// moveToMRU moves (set, way) to the MRU rank of its set's recency ordering.
func (c *Cache) moveToMRU(set, way int) {
	base := set * c.ways
	ord := c.order[base : base+c.ways]
	w := uint8(way)
	last := c.ways - 1
	if ord[last] == w {
		return
	}
	for i, v := range ord {
		if v == w {
			// A byte loop, not copy: the shift is at most a few bytes,
			// below the length where a memmove call pays for itself.
			for ; i < last; i++ {
				ord[i] = ord[i+1]
			}
			ord[last] = w
			return
		}
	}
}

// Touch promotes the line at (set, way): its recency rank becomes MRU
// and, under RRIP, its re-reference prediction becomes immediate.
func (c *Cache) Touch(set, way int) { c.touchIn(set, way) }

// Stamp returns the recency rank of (set, way): 0 is the set's LRU
// position, Ways()-1 its MRU. Exported for tests, which compare ranks of
// valid lines relatively; invalid lines' ranks are unspecified.
func (c *Cache) Stamp(set, way int) uint64 {
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		if int(c.order[base+i]) == way {
			return uint64(i)
		}
	}
	panic("cache: way missing from recency ordering")
}

// InsertAt places a block into (set, way) with the given dirty, loop and
// shared bits and promotes it to MRU. It evicts whatever occupied the way
// and returns that line (Valid false when the way was empty), so callers
// do not call Evict first: they pick the way, insert, and then handle the
// returned victim (writeback, inclusion bookkeeping).
func (c *Cache) InsertAt(set, way int, block uint64, dirty, loop, shared bool) Line {
	idx := set*c.ways + way
	var old Line
	if bit := uint64(1) << uint(way); c.valid[set]&bit != 0 {
		old = c.resident(idx)
	} else {
		c.valid[set] |= bit
		c.fills++
	}
	c.tags[idx] = block
	var m Meta
	m.SetDirty(dirty)
	m.SetLoop(loop)
	m.SetShared(shared)
	if c.cfg.Replacement == ReplRRIP {
		m.setRRPV(rrpvInsert)
	}
	c.meta[idx] = uint8(m)
	c.moveToMRU(set, way)
	return old
}

// Evict invalidates (set, way) and returns the previous contents. The
// second result is false if the line was already invalid. It is for
// removals that place nothing in the way (invalidate-on-hit, migration
// sources); a replacement goes through InsertAt, which evicts itself.
func (c *Cache) Evict(set, way int) (Line, bool) {
	bit := uint64(1) << uint(way)
	if c.valid[set]&bit == 0 {
		return Line{}, false
	}
	idx := set*c.ways + way
	old := c.resident(idx)
	c.valid[set] &^= bit
	c.fills--
	c.tags[idx] = 0
	c.meta[idx] = 0
	return old, true
}

// Invalidate removes a block if present, returning the line it occupied.
func (c *Cache) Invalidate(block uint64) (Line, bool) {
	set := int(block & c.setMask)
	w := c.probeIn(set, block)
	if w < 0 {
		return Line{}, false
	}
	return c.Evict(set, w)
}

// FillCount returns the number of valid lines. It is a running counter,
// not a scan, so telemetry paths can call it per interval.
func (c *Cache) FillCount() int { return c.fills }

// Reset invalidates every line and clears counters, preserving geometry.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.meta)
	c.resetOrder()
	c.fills, c.Hits, c.Misses = 0, 0, 0
}

// State is a decoded cache snapshot — tags, valid bits, recency order,
// line state bytes, and counters — held apart from the live arrays so
// RestoreSnapshot can validate it before touching the cache.
type State struct {
	tags         []uint64
	valid        []uint64
	order        []uint8
	meta         []uint8
	fills        int
	hits, misses uint64
}

// restore overwrites the cache's contents from a snapshot of a cache
// with identical geometry. It panics on a size mismatch, since
// restoring across geometries is always a caller bug.
func (c *Cache) restore(s *State) {
	if len(s.tags) != len(c.tags) || len(s.valid) != len(c.valid) ||
		len(s.order) != len(c.order) || len(s.meta) != len(c.meta) {
		panic(fmt.Sprintf("cache %q: restoring snapshot of different geometry", c.cfg.Name))
	}
	copy(c.tags, s.tags)
	copy(c.valid, s.valid)
	copy(c.order, s.order)
	copy(c.meta, s.meta)
	c.fills, c.Hits, c.Misses = s.fills, s.hits, s.misses
}

// rangeMask returns the bitmask selecting ways [lo, hi).
func rangeMask(lo, hi int) uint64 {
	m := ^uint64(0) >> uint(64-(hi-lo))
	return m << uint(lo)
}

// invalidIn returns the lowest invalid way in [lo, hi), or -1.
func (c *Cache) invalidIn(set, lo, hi int) int {
	if inv := ^c.valid[set] & rangeMask(lo, hi); inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	return -1
}
