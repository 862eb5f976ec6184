package cache

// Durable-state codecs. Checkpointing serializes live caches, dueling
// monitors, and MSHR tables into the wire format; the codecs live here
// because the cache arrays are unexported by design. The layout is
// pinned by the machine payload version one level up — no per-structure
// versioning is needed.

import (
	"fmt"
	"math/bits"

	"repro/internal/checkpoint/wire"
)

// encodeCacheArrays is the snapshot layout behind Cache.EncodeSnapshot
// and the inverse of decodeState. The per-line state bytes are written
// raw.
func encodeCacheArrays(e *wire.Encoder, tags, valid []uint64, order, meta []uint8, fills int, hits, misses uint64) {
	e.U64s(tags)
	e.U64s(valid)
	e.Raw(order)
	e.Raw(meta)
	e.I64(int64(fills))
	e.U64(hits)
	e.U64(misses)
}

// EncodeSnapshot appends the cache's full contents — tags, valid bits,
// recency order, line state bytes, and hit/miss counters — to e.
func (c *Cache) EncodeSnapshot(e *wire.Encoder) {
	encodeCacheArrays(e, c.tags, c.valid, c.order, c.meta, c.fills, c.Hits, c.Misses)
}

// RestoreSnapshot overwrites the cache's contents from a snapshot
// written by EncodeSnapshot on a cache of identical geometry. Malformed
// input or a geometry mismatch returns an error and leaves the cache
// untouched.
func (c *Cache) RestoreSnapshot(d *wire.Decoder) error {
	s, err := decodeState(d)
	if err != nil {
		return err
	}
	if len(s.tags) != len(c.tags) || len(s.valid) != len(c.valid) {
		return fmt.Errorf("cache %q: snapshot geometry mismatch", c.cfg.Name)
	}
	c.restore(s)
	return nil
}

// decodeState reads one cache snapshot into a State, rejecting any
// payload whose arrays do not describe a reachable cache state (see
// validate).
func decodeState(d *wire.Decoder) (*State, error) {
	s := &State{
		tags:  d.U64s(),
		valid: d.U64s(),
		order: d.Raw(),
		meta:  d.Raw(),
	}
	s.fills = int(d.I64())
	s.hits = d.U64()
	s.misses = d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate checks the structural invariants every live cache keeps, so
// that a CRC-valid but inconsistent payload fails at decode time instead
// of panicking mid-run: array lengths agree with one associativity, each
// set's recency order is a permutation of its ways, the fill count
// matches the valid bits, and an invalid way holds a zero tag and a zero
// state byte. State bytes may only use the defined Meta bits.
func (s *State) validate() error {
	sets := len(s.valid)
	if sets == 0 || len(s.tags)%sets != 0 {
		return fmt.Errorf("cache: snapshot has %d tags for %d sets", len(s.tags), sets)
	}
	ways := len(s.tags) / sets
	if ways < 1 || ways > 64 {
		return fmt.Errorf("cache: snapshot associativity %d out of range", ways)
	}
	if len(s.order) != len(s.tags) || len(s.meta) != len(s.tags) {
		return fmt.Errorf("cache: snapshot has %d tags, %d order bytes, %d state bytes",
			len(s.tags), len(s.order), len(s.meta))
	}
	fills := 0
	for set, vm := range s.valid {
		if ways < 64 && vm>>uint(ways) != 0 {
			return fmt.Errorf("cache: snapshot set %d has valid bits beyond way %d", set, ways-1)
		}
		fills += bits.OnesCount64(vm)
		base := set * ways
		var seen uint64
		for _, w := range s.order[base : base+ways] {
			if int(w) >= ways || seen&(1<<w) != 0 {
				return fmt.Errorf("cache: snapshot set %d recency order is not a permutation", set)
			}
			seen |= 1 << w
		}
		for w := 0; w < ways; w++ {
			m := Meta(s.meta[base+w])
			if m&^metaUsed != 0 {
				return fmt.Errorf("cache: snapshot line (%d,%d) state byte %#x has undefined bits", set, w, uint8(m))
			}
			if vm&(1<<uint(w)) == 0 && (s.tags[base+w] != 0 || m != 0) {
				return fmt.Errorf("cache: snapshot invalid line (%d,%d) carries a tag or state", set, w)
			}
		}
	}
	if fills != s.fills {
		return fmt.Errorf("cache: snapshot fill count %d, valid bits hold %d", s.fills, fills)
	}
	return nil
}

// DuelState is the mutable portion of a set-dueling monitor, exported
// so checkpoints can round-trip it (Stride and PeriodCycles are
// configuration, rebuilt from the controller constructor).
type DuelState struct {
	CostA, CostB float64
	NextFlip     uint64
	Winner       Role
}

// State returns the duel's current mutable state.
func (d *Duel) State() DuelState {
	return DuelState{CostA: d.costA, CostB: d.costB, NextFlip: d.nextFlip, Winner: d.winner}
}

// SetState overwrites the duel's mutable state.
func (d *Duel) SetState(s DuelState) {
	d.costA, d.costB, d.nextFlip, d.winner = s.CostA, s.CostB, s.NextFlip, s.Winner
}

// EncodeState appends the duel's mutable state to e.
func (d *Duel) EncodeState(e *wire.Encoder) {
	e.F64(d.costA)
	e.F64(d.costB)
	e.U64(d.nextFlip)
	e.Byte(byte(d.winner))
}

// DecodeState restores the duel's mutable state from e.
func (d *Duel) DecodeState(dec *wire.Decoder) error {
	s := DuelState{
		CostA:    dec.F64(),
		CostB:    dec.F64(),
		NextFlip: dec.U64(),
		Winner:   Role(dec.Byte()),
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if s.Winner != LeaderA && s.Winner != LeaderB {
		return fmt.Errorf("cache: duel winner %d out of range", s.Winner)
	}
	d.SetState(s)
	return nil
}

// EncodeState appends the MSHR table's outstanding-fill state to e.
func (t *MSHR) EncodeState(e *wire.Encoder) {
	e.U64s(t.blocks)
	e.U64s(t.readyAt)
	e.I64(int64(t.pending))
}

// DecodeState restores the table from e. The register count must match
// the table's configured size.
func (t *MSHR) DecodeState(d *wire.Decoder) error {
	blocks := d.U64s()
	readyAt := d.U64s()
	pending := int(d.I64())
	if err := d.Err(); err != nil {
		return err
	}
	if len(blocks) != len(t.blocks) || len(readyAt) != len(t.readyAt) {
		return fmt.Errorf("cache: MSHR size mismatch (%d regs, snapshot has %d)", len(t.blocks), len(blocks))
	}
	if pending < -1 || pending >= len(t.blocks) {
		return fmt.Errorf("cache: MSHR pending slot %d out of range", pending)
	}
	copy(t.blocks, blocks)
	copy(t.readyAt, readyAt)
	t.pending = pending
	return nil
}
