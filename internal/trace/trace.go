// Package trace defines the memory-reference stream that drives the
// simulator, plus binary and text codecs so traces can be captured to disk
// and replayed. Workload surrogates (internal/workload) generate accesses
// on the fly through the same Source interface, so the simulator cannot
// tell a synthetic stream from a recorded one.
package trace

// Access is one memory reference in a core's instruction stream.
type Access struct {
	// Addr is the byte address referenced.
	Addr uint64
	// Write reports whether the reference is a store.
	Write bool
	// Instrs is the number of instructions retired by this reference's
	// instruction and the non-memory instructions since the previous
	// reference. It is at least 1 and lets the simulator convert an
	// access stream into instruction counts and base execution cycles.
	Instrs uint16
}

// Source produces a stream of accesses for one core. Next reports ok=false
// when the stream is exhausted.
type Source interface {
	Next() (a Access, ok bool)
}

// BatchSource is an optional Source extension that decodes many accesses
// per call, amortising the per-access interface-call overhead on the
// simulator's hot loop. NextBatch fills dst from the front and returns
// the number of accesses written; a short count (anything less than
// len(dst)) means the source is exhausted.
type BatchSource interface {
	Source
	NextBatch(dst []Access) int
}

// FillBatch fills dst from src, using the batched path when src supports
// it and falling back to repeated Next calls otherwise. Like
// BatchSource.NextBatch, it returns a short count only on exhaustion.
func FillBatch(src Source, dst []Access) int {
	if b, ok := src.(BatchSource); ok {
		return b.NextBatch(dst)
	}
	for i := range dst {
		a, ok := src.Next()
		if !ok {
			return i
		}
		dst[i] = a
	}
	return len(dst)
}

// SliceSource replays a fixed slice of accesses; useful in tests and for
// traces loaded fully into memory.
type SliceSource struct {
	accs []Access
	pos  int
}

// NewSliceSource returns a Source over the given accesses.
func NewSliceSource(accs []Access) *SliceSource { return &SliceSource{accs: accs} }

// Next implements Source.
func (s *SliceSource) Next() (Access, bool) {
	if s.pos >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.pos]
	s.pos++
	return a, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// NextBatch implements BatchSource by copying a run of the slice.
func (s *SliceSource) NextBatch(dst []Access) int {
	n := copy(dst, s.accs[s.pos:])
	s.pos += n
	return n
}

// Limited wraps a source and truncates it after n accesses.
type Limited struct {
	src  Source
	left uint64
}

// Limit returns a Source that yields at most n accesses from src.
func Limit(src Source, n uint64) *Limited { return &Limited{src: src, left: n} }

// Next implements Source.
func (l *Limited) Next() (Access, bool) {
	if l.left == 0 {
		return Access{}, false
	}
	a, ok := l.src.Next()
	if !ok {
		l.left = 0
		return Access{}, false
	}
	l.left--
	return a, true
}

// NextBatch implements BatchSource, clipping the batch to the remaining
// quota.
func (l *Limited) NextBatch(dst []Access) int {
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n := FillBatch(l.src, dst)
	l.left -= uint64(n)
	if n < len(dst) {
		l.left = 0
	}
	return n
}

// Offset shifts every address from src by a fixed base, giving each core
// in a multi-programmed mix a disjoint address space (the paper runs
// duplicate copies of SPEC2006 benchmarks, one per core).
type Offset struct {
	src  Source
	base uint64
}

// WithOffset returns a Source whose addresses are src's plus base.
func WithOffset(src Source, base uint64) *Offset { return &Offset{src: src, base: base} }

// Next implements Source.
func (o *Offset) Next() (Access, bool) {
	a, ok := o.src.Next()
	if !ok {
		return Access{}, false
	}
	a.Addr += o.base
	return a, true
}

// NextBatch implements BatchSource, shifting the batch in place.
func (o *Offset) NextBatch(dst []Access) int {
	n := FillBatch(o.src, dst)
	for i := range dst[:n] {
		dst[i].Addr += o.base
	}
	return n
}

// Drain reads every access from src into a slice (test helper and codec
// round-trip support). Use with bounded sources only.
func Drain(src Source) []Access {
	var out []Access
	for {
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// Skip discards up to n accesses from src and returns how many were
// actually discarded (short only when the source exhausts first).
// Checkpoint resume uses it to fast-forward a freshly rebuilt
// deterministic source past the prefix a restored machine already
// executed.
func Skip(src Source, n uint64) uint64 {
	var buf [256]Access
	var done uint64
	for done < n {
		chunk := n - done
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		got := FillBatch(src, buf[:chunk])
		done += uint64(got)
		if uint64(got) < chunk {
			break
		}
	}
	return done
}
