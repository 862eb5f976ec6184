package core

import (
	"repro/internal/cache"
	"repro/internal/energy"
)

// Banks models LLC bank contention: each bank serialises its accesses, so
// a burst of long STT-RAM writes delays subsequent reads to the same bank.
// This is the mechanism behind the paper's observation that reducing
// long-latency writes can *improve* performance.
type Banks struct {
	next []uint64
	ops  []uint64
	mask uint64
}

// NewBanks returns a bank model with n banks; n must be a power of two.
func NewBanks(n int) *Banks {
	if n <= 0 || n&(n-1) != 0 {
		panic("core: bank count must be a positive power of two")
	}
	return &Banks{next: make([]uint64, n), ops: make([]uint64, n), mask: uint64(n - 1)}
}

// BankOf maps a set index to its bank.
func (b *Banks) BankOf(set int) int { return int(uint64(set) & b.mask) }

// Access schedules an access that keeps the bank busy for occ cycles and
// completes after lat cycles, starting no earlier than now. It returns
// the total latency (queueing + lat) seen by the access. Banks are
// internally sub-banked, so occ is typically a fraction of lat.
func (b *Banks) Access(set int, now, occ, lat uint64) uint64 {
	bank := b.BankOf(set)
	b.ops[bank]++
	start := now
	if b.next[bank] > start {
		start = b.next[bank]
	}
	b.next[bank] = start + occ
	return start - now + lat
}

// Ops returns the per-bank access counts accumulated so far (the bank
// utilization profile exported through Result.BankOps and /metrics).
func (b *Banks) Ops() []uint64 { return b.ops }

// Ctx is the environment a Controller operates in: the LLC itself, the
// energy meter, metrics, optional profiler, the bank timing model, and
// the per-region latencies. The simulator refreshes Now before each call.
type Ctx struct {
	// L3 is the shared last-level cache.
	L3 *cache.Cache
	// E meters LLC energy. Region 0 is the whole data array for a
	// single-technology LLC; the hybrid LLC uses region 0 for SRAM ways
	// and region 1 for STT-RAM ways.
	E *energy.Meter
	// Met accumulates event counts.
	Met *Metrics
	// Prof, when non-nil, tracks per-block redundancy statistics.
	Prof *Profiler
	// Banks models bank contention.
	Banks *Banks
	// ReadCyc and WriteCyc are data-array access latencies per region;
	// ReadOcc and WriteOcc are the (sub-banked, hence shorter) bank
	// occupancies those accesses impose.
	ReadCyc  [2]uint64
	WriteCyc [2]uint64
	ReadOcc  [2]uint64
	WriteOcc [2]uint64
	// MemCycles is the main-memory access latency when MemAccess is nil.
	MemCycles uint64
	// MemAccess, when non-nil, models main-memory timing (e.g. the DRAM
	// row-buffer model in internal/dram); it receives the block number,
	// the current cycle, and whether the access is a write.
	MemAccess func(block, now uint64, write bool) uint64
	// MSHR, when non-nil, bounds outstanding LLC misses: concurrent
	// misses to the same block merge with the in-flight fill, and a full
	// table stalls new misses (Config.MSHREntries).
	MSHR *cache.MSHR
	// Now is the requesting core's current cycle.
	Now uint64
	// BackInvalidate, set by the simulator, removes the block from every
	// upper-level cache and reports whether any copy was dirty. Only the
	// inclusive controller uses it.
	BackInvalidate func(block uint64) bool
	// EvictObserver, when non-nil, is notified of every LLC replacement
	// eviction (dead-write predictors train on it).
	EvictObserver func(block uint64)
	// Functional switches the context into functional-warmup mode for
	// sampled simulation: cache state (tags, recency, loop bits, dueling)
	// still updates through the normal controller paths, and the cheap
	// event counters in Met keep counting (interval signatures need them),
	// but energy metering, bank/DRAM timing, and the MSHR are skipped —
	// their state must not drift while the clock is frozen.
	Functional bool
}

// regionOf maps an L3 way to its energy/timing region.
func (x *Ctx) regionOf(way int) energy.RegionID {
	if x.L3.SRAMWays() > 0 && way >= x.L3.SRAMWays() {
		return energy.RegionSTT
	}
	return energy.RegionSRAM // region 0 doubles as "the" region for single-tech
}

// tagAccess meters one tag-array access.
func (x *Ctx) tagAccess() {
	if x.Functional {
		return
	}
	x.E.AddTag()
}

// dataRead meters and times a data-array read of (set, way), returning
// the latency including bank queueing.
func (x *Ctx) dataRead(set, way int) uint64 {
	if x.Functional {
		return 0
	}
	r := x.regionOf(way)
	x.E.AddRead(r)
	return x.Banks.Access(set, x.Now, x.occ(x.ReadOcc[r], x.ReadCyc[r]), x.ReadCyc[r])
}

// occ falls back to the full latency when no occupancy was configured.
func (x *Ctx) occ(configured, lat uint64) uint64 {
	if configured > 0 {
		return configured
	}
	return lat
}

// dataWrite meters and times a data-array write of (set, way). Fills and
// victim insertions are off the requester's critical path, so callers
// usually discard the returned latency; the bank stays occupied either
// way, which is how write pressure turns into read stalls.
func (x *Ctx) dataWrite(set, way int) uint64 {
	if x.Functional {
		return 0
	}
	r := x.regionOf(way)
	x.E.AddWrite(r)
	return x.Banks.Access(set, x.Now, x.occ(x.WriteOcc[r], x.WriteCyc[r]), x.WriteCyc[r])
}

// memRead fetches a block from main memory, returning its latency. With
// an MSHR attached, a miss to a block already in flight merges with the
// outstanding fill (no new memory read), and a full table delays the
// issue until the earliest outstanding fill retires.
func (x *Ctx) memRead(block uint64) uint64 {
	if x.Functional {
		// Count the read (miss-traffic signatures need it) but leave the
		// MSHR and DRAM models untouched: their state is keyed to the
		// cycle clock, which does not advance in functional mode.
		x.Met.MemReads++
		return 0
	}
	if t := x.MSHR; t != nil {
		if wait, ok := t.Merge(block, x.Now); ok {
			x.Met.MSHRMerges++
			return wait
		}
		delay, stalled := t.Reserve(x.Now)
		if stalled {
			x.Met.MSHRStalls++
		}
		issue := x.Now + delay
		x.Met.MemReads++
		lat := x.MemCycles
		if x.MemAccess != nil {
			lat = x.MemAccess(block, issue, false)
		}
		t.Fill(block, issue+lat)
		return delay + lat
	}
	x.Met.MemReads++
	if x.MemAccess != nil {
		return x.MemAccess(block, x.Now, false)
	}
	return x.MemCycles
}

// memWrite writes a block back to main memory. Writebacks are off the
// requester's critical path, so the latency is discarded, but the DRAM
// model still sees the access (row-buffer and bank occupancy effects).
func (x *Ctx) memWrite(block uint64) {
	x.Met.MemWrites++
	if x.MemAccess != nil && !x.Functional {
		x.MemAccess(block, x.Now, true)
	}
}

// retire processes the replacement victim v that just left way of its
// set (a zero Line when the way was empty): a dirty victim is read out
// and written back to memory; the profiler learns the LLC no longer
// holds the block.
func (x *Ctx) retire(way int, v cache.Line) {
	if !v.Valid {
		return
	}
	x.Met.L3Evictions++
	if v.Dirty {
		x.Met.L3DirtyEvictions++
		x.memWrite(v.Tag)
		if !x.Functional {
			// Reading the block out of the data array for writeback costs a
			// data-array read.
			x.E.AddRead(x.regionOf(way))
		}
	}
	if x.Prof != nil {
		x.Prof.OnL3Evict(v.Tag)
	}
	if x.EvictObserver != nil {
		x.EvictObserver(v.Tag)
	}
	if x.BackInvalidate != nil {
		if dirtyAbove := x.BackInvalidate(v.Tag); dirtyAbove {
			x.memWrite(v.Tag)
		}
		x.Met.BackInvalidations++
	}
}

// insert places a block into the L3 at the victim chosen by selectWay,
// charging a data write attributed to src. It returns the way used.
func (x *Ctx) insert(block uint64, dirty, loop bool, src WriteSource, selectWay func(set int) int) int {
	set := x.L3.SetOf(block)
	way := selectWay(set)
	x.insertAt(set, way, block, dirty, loop, src)
	return way
}

// insertAt writes block into (set, way), retiring the occupant, and
// charges a data write attributed to src.
func (x *Ctx) insertAt(set, way int, block uint64, dirty, loop bool, src WriteSource) {
	x.retire(way, x.L3.InsertAt(set, way, block, dirty, loop, false))
	x.dataWrite(set, way)
	x.Met.AddWrite(src)
	if x.Prof != nil {
		switch src {
		case SrcFill:
			x.Prof.OnFill(block)
		case SrcClean:
			x.Prof.OnCleanInsert(block)
		}
	}
}

// FetchResult reports the outcome of a Fetch to the hierarchy.
type FetchResult struct {
	// Hit reports whether the LLC served the block.
	Hit bool
	// Lat is the L3-side latency (cycles) the requesting core observed.
	Lat uint64
	// Loop is the loop-bit value the L2 should attach to its new copy:
	// true exactly when the block was served by an LLC hit under LAP
	// (Fig. 10c).
	Loop bool
}

// Controller is an inclusion property between the private L2s and the
// shared LLC. Implementations must be deterministic.
type Controller interface {
	// Name identifies the policy ("non-inclusive", "LAP", ...).
	Name() string
	// Fetch handles an L2 miss for the given block.
	Fetch(x *Ctx, block uint64) FetchResult
	// EvictL2 handles a victim evicted by an L2.
	EvictL2(x *Ctx, v cache.Line)
}
