package cache

import "math/bits"

// Victim selection policies. The paper's loop-block-aware replacement
// (Section III-B, Fig. 9) selects, in priority order: an invalid way, the
// LRU non-loop-block, and only as a last resort the LRU loop-block. The
// baseline is plain LRU. Both are provided as range-restricted primitives
// so the hybrid LLC can apply them within its SRAM or STT-RAM way regions.
//
// Selectors consult the valid bitmask and the per-set recency ordering;
// only the loop-aware variants read the per-line state bytes.

// VictimIn returns the victim way in [lo, hi) of the given set using plain
// LRU: an invalid way if one exists, otherwise the least recently used.
// It panics if the range is empty.
func (c *Cache) VictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	if w := c.invalidIn(set, lo, hi); w >= 0 {
		return w
	}
	base := set * c.ways
	for _, w := range c.order[base : base+c.ways] {
		if int(w) >= lo && int(w) < hi {
			return int(w)
		}
	}
	panic("cache: victim range missing from recency ordering")
}

// LoopAwareVictimIn returns the victim way in [lo, hi) using the paper's
// loop-block-aware priority: invalid → LRU non-loop-block → LRU loop-block.
func (c *Cache) LoopAwareVictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	if w := c.invalidIn(set, lo, hi); w >= 0 {
		return w
	}
	base := set * c.ways
	lruLoop := -1
	for _, w := range c.order[base : base+c.ways] {
		if int(w) < lo || int(w) >= hi {
			continue
		}
		if !Meta(c.meta[base+int(w)]).Loop() {
			return int(w)
		}
		if lruLoop < 0 {
			lruLoop = int(w)
		}
	}
	return lruLoop
}

// LRUVictim returns the plain-LRU victim across all ways of a set, the
// same way VictimIn(set, 0, Ways()) picks: the lowest invalid way, else
// the set's LRU rank. Over the whole set no range filter is needed, so it
// reads the valid mask and one order byte.
func (c *Cache) LRUVictim(set int) int {
	if inv := ^c.valid[set] & rangeMask(0, c.ways); inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	return int(c.order[set*c.ways])
}

// LoopAwareVictim returns the loop-aware victim across all ways of a set.
func (c *Cache) LoopAwareVictim(set int) int { return c.LoopAwareVictimIn(set, 0, c.ways) }

// MRULoopIn returns the most recently used valid loop-block's way in
// [lo, hi), or -1 if the range holds none. The hybrid LLC uses it to pick
// the loop-block to migrate from SRAM to STT-RAM (Fig. 11b).
func (c *Cache) MRULoopIn(set, lo, hi int) int {
	base := set * c.ways
	vm := c.valid[set]
	ord := c.order[base : base+c.ways]
	for i := c.ways - 1; i >= 0; i-- {
		w := int(ord[i])
		if w >= lo && w < hi && vm&(1<<uint(w)) != 0 && Meta(c.meta[base+w]).Loop() {
			return w
		}
	}
	return -1
}

// InvalidWayIn returns an invalid way in [lo, hi), or -1 if the range is
// fully occupied.
func (c *Cache) InvalidWayIn(set, lo, hi int) int { return c.invalidIn(set, lo, hi) }
