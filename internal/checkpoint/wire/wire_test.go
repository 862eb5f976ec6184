package wire

import (
	"math"
	"testing"
)

type counters struct {
	A uint64
	B uint64
	C uint64
}

func TestU64StructRoundTrip(t *testing.T) {
	in := counters{A: 1, B: 1 << 40, C: math.MaxUint64}
	var enc Encoder
	enc.U64Struct(&in)

	var out counters
	d := NewDecoder(enc.Bytes())
	d.U64Struct(&out)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: got %+v want %+v", out, in)
	}
}

// Floats must survive bit-exactly, including non-finite values and
// signed zero: checkpoints restore float64 cycle counts that feed
// byte-identical resumed runs.
func TestF64Bits(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 3.14159e-300} {
		var enc Encoder
		enc.F64(f)
		enc.F64s([]float64{f})
		d := NewDecoder(enc.Bytes())
		got, gots := d.F64(), d.F64s()
		if err := d.Err(); err != nil {
			t.Fatalf("decode %v: %v", f, err)
		}
		for _, g := range []float64{got, gots[0]} {
			if math.Float64bits(g) != math.Float64bits(f) {
				t.Fatalf("float bits changed: got %x want %x", math.Float64bits(g), math.Float64bits(f))
			}
		}
	}
}

// An artifact written with a different field count must latch a decode
// error, not panic: old checkpoints degrade to a cold start.
func TestU64StructFieldCountMismatch(t *testing.T) {
	var enc Encoder
	enc.U64(2) // claims 2 fields; counters has 3
	enc.U64(1)
	enc.U64(2)

	var out counters
	d := NewDecoder(enc.Bytes())
	d.U64Struct(&out)
	if d.Err() == nil {
		t.Fatal("expected decode error on field-count mismatch")
	}
}

func TestU64StructRejectsOtherKinds(t *testing.T) {
	type bad struct {
		A uint64
		B float64
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-uint64 field")
		}
	}()
	var enc Encoder
	enc.U64Struct(&bad{})
}
