package cache

// RRIP replacement (Jaleel et al. [37], "High performance cache
// replacement using re-reference interval prediction"). The paper notes
// (Section IV) that LAP's loop-block-aware victim selection composes with
// RRIP exactly as with LRU: "selecting an LRU block is just like
// selecting a block with distant re-reference interval, while selecting
// an MRU block is just like selecting a block with immediate re-reference
// interval". This file implements 2-bit SRRIP and its loop-aware variant.

// rrip constants: 2-bit re-reference prediction values.
const (
	rrpvBits    = 2
	rrpvMax     = 1<<rrpvBits - 1 // 3: predicted distant re-reference
	rrpvInsert  = rrpvMax - 1     // 2: SRRIP insertion value
	rrpvPromote = 0               // re-referenced: predicted immediate
)

// Replacement selects the base replacement family for a cache.
type Replacement int

// Replacement families. ReplLRU is the paper's default; ReplRRIP is the
// SRRIP alternative called out in Section IV. LRU recency orderings are
// always maintained (the hybrid LLC's MRU migration scan needs them);
// RRIP additionally tracks per-line RRPVs.
const (
	ReplLRU Replacement = iota
	ReplRRIP
)

// String names the replacement family.
func (r Replacement) String() string {
	if r == ReplRRIP {
		return "RRIP"
	}
	return "LRU"
}

// rripVictimIn returns the SRRIP victim in [lo, hi): the first way, in
// way order, that is invalid or at the maximum RRPV, ageing the range
// until one exists. A distant line at a lower way therefore wins over an
// invalid way above it.
func (c *Cache) rripVictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	base := set * c.ways
	vm := c.valid[set]
	for {
		for w := lo; w < hi; w++ {
			if vm&(1<<uint(w)) == 0 {
				return w
			}
			if Meta(c.meta[base+w]).rrpv() >= rrpvMax {
				return w
			}
		}
		c.ageIn(base, lo, hi)
	}
}

// ageIn advances every line in [lo, hi) of the set starting at base one
// step towards a distant re-reference prediction.
func (c *Cache) ageIn(base, lo, hi int) {
	for w := lo; w < hi; w++ {
		if m := (*Meta)(&c.meta[base+w]); m.rrpv() < rrpvMax {
			m.setRRPV(m.rrpv() + 1)
		}
	}
}

// rripLoopAwareVictimIn is the loop-block-aware SRRIP victim: the first
// way, in way order, that is invalid or a distant non-loop-block; when
// the range holds only loop-blocks, the first distant loop-block (ageing
// as needed).
func (c *Cache) rripLoopAwareVictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	base := set * c.ways
	vm := c.valid[set]
	for {
		bestLoop := -1
		for w := lo; w < hi; w++ {
			m := Meta(c.meta[base+w])
			if vm&(1<<uint(w)) == 0 {
				return w
			}
			if m.rrpv() >= rrpvMax {
				if !m.Loop() {
					return w
				}
				if bestLoop < 0 {
					bestLoop = w
				}
			}
		}
		// Check whether any non-loop block can still age to distant; if
		// every line is a loop-block, fall back to the distant loop-block.
		anyNonLoop := false
		for w := lo; w < hi; w++ {
			if !Meta(c.meta[base+w]).Loop() {
				anyNonLoop = true
				break
			}
		}
		if !anyNonLoop && bestLoop >= 0 {
			return bestLoop
		}
		c.ageIn(base, lo, hi)
	}
}

// Victim returns the configured family's victim across the whole set.
func (c *Cache) Victim(set int) int { return c.VictimInRange(set, 0, c.ways) }

// VictimInRange returns the configured family's victim within [lo, hi).
func (c *Cache) VictimInRange(set, lo, hi int) int {
	if c.cfg.Replacement == ReplRRIP {
		return c.rripVictimIn(set, lo, hi)
	}
	return c.VictimIn(set, lo, hi)
}

// LoopVictim returns the configured family's loop-aware victim across the
// whole set.
func (c *Cache) LoopVictim(set int) int { return c.LoopVictimInRange(set, 0, c.ways) }

// LoopVictimInRange returns the configured family's loop-aware victim
// within [lo, hi).
func (c *Cache) LoopVictimInRange(set, lo, hi int) int {
	if c.cfg.Replacement == ReplRRIP {
		return c.rripLoopAwareVictimIn(set, lo, hi)
	}
	return c.LoopAwareVictimIn(set, lo, hi)
}

// RRPV exposes a line's re-reference prediction value for tests.
func (c *Cache) RRPV(set, way int) uint8 { return Meta(c.meta[set*c.ways+way]).rrpv() }
