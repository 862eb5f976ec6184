// Package wire implements the minimal binary encoding shared by every
// durable simulator artifact: machine checkpoints and the checkpoint
// store's file headers. It is deliberately a leaf package (stdlib only,
// no repo imports) so that cache, core, and sim can all encode their
// own state without import cycles.
//
// The format is byte-oriented and self-delimiting: unsigned integers
// are uvarints, floats are fixed 8-byte little-endian IEEE-754 bit
// patterns (so restored float64 state is bit-identical, a requirement
// for byte-identical resumed runs), and byte strings are
// length-prefixed. There is no field tagging: readers and writers must
// agree on layout, which the enclosing checkpoint format version pins.
//
// Decoding is hardened against corrupt input: every read checks the
// remaining buffer, declared lengths are bounded by the bytes actually
// present before any allocation, and the first failure latches into a
// sticky *DecodeError so callers can decode a whole structure and
// check Err() once.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Encoder appends values to a growing buffer. The zero value is ready
// to use; Reset allows buffer reuse across checkpoints.
type Encoder struct {
	buf []byte
}

// Reset truncates the buffer, keeping its capacity for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded buffer. The slice aliases the encoder's
// storage and is invalidated by further writes or Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// U64 appends v as a uvarint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends v zigzag-encoded, so small negative values stay short.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 appends v as its fixed 8-byte little-endian bit pattern.
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Raw appends p length-prefixed.
func (e *Encoder) Raw(p []byte) {
	e.U64(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Str appends s length-prefixed.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed slice of uvarints.
func (e *Encoder) U64s(v []uint64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// F64s appends a length-prefixed slice of fixed float64s.
func (e *Encoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// U64Struct appends every field of a struct whose fields are all
// uint64, in declaration order. It panics on any other field type:
// that is a codec bug (a counter struct grew a non-uint64 field and
// the codec must be updated by hand), not a data error. Used for
// core.Metrics so that adding a counter field can
// never silently drop it from checkpoints.
func (e *Encoder) U64Struct(v any) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		panic(fmt.Sprintf("wire: U64Struct on %s", rv.Kind()))
	}
	n := rv.NumField()
	e.U64(uint64(n))
	for i := 0; i < n; i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Uint64 {
			panic(fmt.Sprintf("wire: U64Struct field %s.%s is %s, not uint64",
				rv.Type().Name(), rv.Type().Field(i).Name, f.Kind()))
		}
		e.U64(f.Uint())
	}
}

// DecodeError reports the first malformed read of a Decoder: the byte
// offset it happened at and why. The checkpoint store maps any
// DecodeError to its typed ErrCorrupt.
type DecodeError struct {
	Off    int
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: offset %d: %s", e.Off, e.Reason)
}

// Decoder reads values sequentially from a buffer. The first failure
// latches: every subsequent read returns zero values and Err() reports
// the original *DecodeError.
type Decoder struct {
	buf []byte
	off int
	err *DecodeError
}

// NewDecoder returns a decoder over p. The decoder does not copy p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Err returns the latched decode failure, or nil.
func (d *Decoder) Err() error {
	if d.err == nil {
		return nil
	}
	return d.err
}

// Rest returns the undecoded remainder of the buffer.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

func (d *Decoder) fail(reason string) {
	if d.err == nil {
		d.err = &DecodeError{Off: d.off, Reason: reason}
	}
}

// U64 reads one uvarint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 reads one zigzag varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// F64 reads one fixed 8-byte float64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Bool reads one 0/1 byte; any other value is corruption.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte out of range")
		return false
	}
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Length reads a count prefix and bounds it: each element occupies at
// least min bytes, so a declared count larger than the remaining
// buffer divided by min is corruption, caught (and latched) before any
// allocation.
func (d *Decoder) Length(min int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if rem := len(d.buf) - d.off; n > uint64(rem/min) {
		d.fail(fmt.Sprintf("declared length %d exceeds remaining %d bytes", n, rem))
		return 0
	}
	return int(n)
}

// Raw reads one length-prefixed byte string. The result is a copy.
func (d *Decoder) Raw() []byte {
	n := d.Length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+n])
	d.off += n
	return out
}

// Str reads one length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Length(1)
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// U64s reads one length-prefixed uvarint slice.
func (d *Decoder) U64s() []uint64 {
	n := d.Length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// F64s reads one length-prefixed fixed-float64 slice.
func (d *Decoder) F64s() []float64 {
	n := d.Length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// U64Struct fills a struct of uint64 fields written by
// Encoder.U64Struct. A field-count mismatch (the struct changed shape
// since the artifact was written) is a decode error, not a panic: old
// checkpoints must degrade to cold start, not crash the process.
func (d *Decoder) U64Struct(v any) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.Elem().Kind() != reflect.Struct {
		panic("wire: U64Struct decode needs a struct pointer")
	}
	rv = rv.Elem()
	n := rv.NumField()
	got := d.U64()
	if d.err != nil {
		return
	}
	if got != uint64(n) {
		d.fail(fmt.Sprintf("struct %s has %d fields, artifact has %d",
			rv.Type().Name(), n, got))
		return
	}
	for i := 0; i < n; i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Uint64 {
			panic(fmt.Sprintf("wire: U64Struct field %s.%s is %s, not uint64",
				rv.Type().Name(), rv.Type().Field(i).Name, f.Kind()))
		}
		f.SetUint(d.U64())
	}
}
