// Package workload synthesises the memory-reference behaviour of the
// SPEC CPU2006 and PARSEC benchmarks the paper evaluates. The paper's own
// analysis characterises each workload by a handful of properties — the
// fraction of loop-blocks and their clean-trip counts (Fig. 4), the
// fraction of redundant LLC data-fills (Fig. 6), and the relative
// miss/write traffic under exclusion (Fig. 2/13) — so each surrogate is a
// mixture of access regions parameterised directly in those terms:
//
//   - Hot: a small working set with high reuse (filtered by L1/L2).
//   - Loop: a cyclically scanned read-only set sized between the L2 and
//     the per-core LLC share; this is the loop-block generator.
//   - RMW: a randomly accessed read-modify-write set producing dirty
//     victims; sized above the LLC it also produces redundant data-fills.
//   - Stream: a sequential read stream with no reuse.
//   - StreamRMW: a sequential read-then-write stream with no reuse — the
//     pure redundant-data-fill generator (libquantum-style).
//
// Generators are deterministic given a seed and implement trace.Source.
package workload

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/trace"
)

// RegionKind enumerates the access-pattern archetypes a surrogate mixes.
type RegionKind int

// Region kinds; see the package comment for semantics.
const (
	Hot RegionKind = iota
	Loop
	RMW
	Stream
	StreamRMW
)

// String returns the kind's name.
func (k RegionKind) String() string {
	switch k {
	case Hot:
		return "Hot"
	case Loop:
		return "Loop"
	case RMW:
		return "RMW"
	case Stream:
		return "Stream"
	case StreamRMW:
		return "StreamRMW"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// BlockBytes is the cache-block granularity the generators emit (matching
// the hierarchy's 64B blocks).
const BlockBytes = 64

// Region is one component of a surrogate's access mixture.
type Region struct {
	// Kind selects the access pattern.
	Kind RegionKind
	// Blocks is the region's working-set size in 64B blocks. Stream kinds
	// treat it as a ring large enough that wrap-around never re-hits the
	// caches; a zero value selects a default 4M-block (256MB) ring.
	Blocks uint64
	// Weight is the region's share of the access stream (weights are
	// normalised over the benchmark, so they need not sum to 1).
	Weight float64
	// WriteFrac is the probability an access writes (Hot), or the
	// probability a read is followed by a write-back of the same block
	// (RMW). Loop and Stream ignore it; StreamRMW always writes.
	WriteFrac float64
	// Shared marks the region as shared between the threads of a
	// multi-threaded workload; private regions get per-thread bases.
	Shared bool
}

// Benchmark is a named surrogate: a mixture of regions plus the mean
// number of instructions retired per memory access (compute intensity).
type Benchmark struct {
	// Name is the benchmark's SPEC/PARSEC name.
	Name string
	// InstrPerAccess is the mean instructions per memory reference.
	InstrPerAccess float64
	// Regions is the access mixture.
	Regions []Region
	// Threaded marks PARSEC-style shared-address-space workloads.
	Threaded bool
}

const defaultStreamRing = 1 << 22 // 256MB of block addresses; never re-hits

// generator emits the surrogate's access stream. It implements
// trace.Source and never ends; wrap it with trace.Limit.
type generator struct {
	bench    Benchmark
	rng      *rand.Rand
	pcg      *rand.PCG // rng's source, retained so Fork can snapshot it
	cum      []float64 // cumulative normalised weights
	bases    []uint64  // per-region base block address
	cursors  []uint64  // per-region loop/stream cursor
	pending  trace.Access
	havePend bool
	instErr  float64 // dithering accumulator for fractional InstrPerAccess
}

// regionSpaceBits separates region address spaces within one benchmark;
// 2^28 blocks = 16GB per region is far beyond any working set here.
const regionSpaceBits = 28

// threadSpaceBits separates per-thread private address spaces.
const threadSpaceBits = 36

// New returns an endless trace.Source for bench, seeded deterministically.
// For single-threaded use; see Threads for multi-threaded workloads.
func New(bench Benchmark, seed uint64) trace.Source {
	return newGenerator(bench, seed, 0, 1)
}

// Threads returns one source per thread of a shared-address-space
// workload. Shared regions use a common base across threads (so threads
// genuinely share blocks); private regions are offset per thread. Loop
// cursors of shared regions start phase-shifted so threads sweep the
// shared data the way PARSEC's data-parallel loops do.
func Threads(bench Benchmark, n int, seed uint64) []trace.Source {
	if n <= 0 {
		panic("workload: thread count must be positive")
	}
	srcs := make([]trace.Source, n)
	for t := 0; t < n; t++ {
		srcs[t] = newGenerator(bench, seed+uint64(t)*0x9e3779b9, t, n)
	}
	return srcs
}

func newGenerator(bench Benchmark, seed uint64, thread, nthreads int) *generator {
	if len(bench.Regions) == 0 {
		panic(fmt.Sprintf("workload %q: no regions", bench.Name))
	}
	if bench.InstrPerAccess < 1 {
		panic(fmt.Sprintf("workload %q: InstrPerAccess must be >= 1", bench.Name))
	}
	pcg := rand.NewPCG(seed, 0x9e3779b97f4a7c15+uint64(thread))
	g := &generator{
		bench: bench,
		rng:   rand.New(pcg),
		pcg:   pcg,
	}
	total := 0.0
	for _, r := range bench.Regions {
		if r.Weight < 0 {
			panic(fmt.Sprintf("workload %q: negative region weight", bench.Name))
		}
		total += r.Weight
	}
	if total <= 0 {
		panic(fmt.Sprintf("workload %q: zero total weight", bench.Name))
	}
	acc := 0.0
	for i, r := range bench.Regions {
		acc += r.Weight / total
		g.cum = append(g.cum, acc)
		base := uint64(i+1) << regionSpaceBits
		if !r.Shared {
			base += uint64(thread+1) << threadSpaceBits
		}
		g.bases = append(g.bases, base)
		cursor := uint64(0)
		if r.Shared && nthreads > 1 {
			blocks := r.Blocks
			if blocks == 0 {
				blocks = defaultStreamRing
			}
			cursor = blocks * uint64(thread) / uint64(nthreads)
		}
		g.cursors = append(g.cursors, cursor)
	}
	g.cum[len(g.cum)-1] = 1.0 // absorb rounding
	return g
}

// Next implements trace.Source. The stream is infinite.
func (g *generator) Next() (trace.Access, bool) {
	if g.havePend {
		g.havePend = false
		a := g.pending
		a.Instrs = g.instrs()
		return a, true
	}
	ri := g.pick()
	r := &g.bench.Regions[ri]
	blocks := r.Blocks
	if blocks == 0 {
		blocks = defaultStreamRing
	}
	var block uint64
	write := false
	switch r.Kind {
	case Hot:
		block = g.rng.Uint64N(blocks)
		write = g.rng.Float64() < r.WriteFrac
	case Loop:
		block = g.advance(ri, blocks)
	case RMW:
		block = g.rng.Uint64N(blocks)
		if g.rng.Float64() < r.WriteFrac {
			g.pending = trace.Access{Addr: (g.bases[ri] + block) * BlockBytes, Write: true}
			g.havePend = true
		}
	case Stream, StreamRMW:
		block = g.advance(ri, blocks)
		if r.Kind == StreamRMW {
			g.pending = trace.Access{Addr: (g.bases[ri] + block) * BlockBytes, Write: true}
			g.havePend = true
		}
	default:
		panic(fmt.Sprintf("workload %q: unknown region kind %d", g.bench.Name, r.Kind))
	}
	return trace.Access{
		Addr:   (g.bases[ri] + block) * BlockBytes,
		Write:  write,
		Instrs: g.instrs(),
	}, true
}

// NextBatch implements trace.BatchSource; the stream is infinite, so the
// batch is always filled completely.
func (g *generator) NextBatch(dst []trace.Access) int {
	for i := range dst {
		dst[i], _ = g.Next()
	}
	return len(dst)
}

// Fork implements trace.Forker: the returned source continues the
// stream from the generator's current position, with its own copy of
// every piece of mutable state (PCG state, region cursors, pending RMW
// write, instruction dither). The immutable mixture tables (cum, bases)
// are shared.
func (g *generator) Fork() trace.Source {
	state, err := g.pcg.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("workload %q: snapshot rng: %v", g.bench.Name, err))
	}
	pcg := &rand.PCG{}
	if err := pcg.UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("workload %q: restore rng: %v", g.bench.Name, err))
	}
	return &generator{
		bench:    g.bench,
		rng:      rand.New(pcg),
		pcg:      pcg,
		cum:      g.cum,
		bases:    g.bases,
		cursors:  append([]uint64(nil), g.cursors...),
		pending:  g.pending,
		havePend: g.havePend,
		instErr:  g.instErr,
	}
}

// advance returns region ri's cursor and steps it around the ring of
// blocks. Cursors start below blocks and move by one, so a compare
// replaces the modulo.
func (g *generator) advance(ri int, blocks uint64) uint64 {
	block := g.cursors[ri]
	if next := block + 1; next < blocks {
		g.cursors[ri] = next
	} else {
		g.cursors[ri] = 0
	}
	return block
}

func (g *generator) pick() int {
	x := g.rng.Float64()
	for i, c := range g.cum {
		if x < c {
			return i
		}
	}
	return len(g.cum) - 1
}

// instrs dithers the fractional mean InstrPerAccess into a deterministic
// integer sequence whose average converges to the mean.
func (g *generator) instrs() uint16 {
	want := g.bench.InstrPerAccess + g.instErr
	n := uint16(want)
	if n < 1 {
		n = 1
	}
	g.instErr = want - float64(n)
	return n
}
