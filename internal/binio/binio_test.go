package binio

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0xFFFFFFFFFFFFFFFF)
	w.I32(-12345)
	w.Int(-7)
	w.Uvarint(1 << 40)
	w.String("hello \x00 world")
	w.U64s([]uint64{0, 1, 1 << 63})
	w.U16s([]uint16{65535, 0, 42})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.I32(); got != -12345 {
		t.Fatalf("I32 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.String(); got != "hello \x00 world" {
		t.Fatalf("String = %q", got)
	}
	if got := r.U64sInto(nil); !slices.Equal(got, []uint64{0, 1, 1 << 63}) {
		t.Fatalf("U64s = %v", got)
	}
	if got := r.U16sInto(nil); !slices.Equal(got, []uint16{65535, 0, 42}) {
		t.Fatalf("U16s = %v", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{1},
		bytes.Repeat([]byte{0}, 100000),
		bytes.Repeat([]byte{7}, 1000),
		{0, 0, 0, 1, 0, 0, 0}, // short runs fold into literals
		append(bytes.Repeat([]byte{0}, 8), 1, 2, 3),         // min collapsible run
		append([]byte{9}, bytes.Repeat([]byte{0}, 1024)...), // literal then big run
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		// Sparse random buffers shaped like cache slabs.
		buf := make([]byte, rng.Intn(4096))
		for j := 0; j < len(buf)/10; j++ {
			buf[rng.Intn(len(buf)+1)%max(len(buf), 1)] = byte(rng.Intn(256))
		}
		cases = append(cases, buf)
	}
	for i, c := range cases {
		var w Writer
		w.RLE(c)
		r := NewReader(w.Bytes())
		got := r.RLEInto(nil, len(c))
		if r.Err() != nil {
			t.Fatalf("case %d: %v", i, r.Err())
		}
		if !bytes.Equal(got, c) {
			t.Fatalf("case %d: round trip mismatch (%d vs %d bytes)", i, len(got), len(c))
		}
		if r.Len() != 0 {
			t.Fatalf("case %d: %d bytes left", i, r.Len())
		}
	}
}

// TestRLECanonical: identical input must always serialize to identical
// bytes (content-addressed storage depends on it).
func TestRLECanonical(t *testing.T) {
	buf := append(bytes.Repeat([]byte{0}, 500), 1, 2, 0, 0, 3)
	var w1, w2 Writer
	w1.RLE(buf)
	w2.RLE(slices.Clone(buf))
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("RLE output not canonical")
	}
}

// TestTruncatedInputFailsCleanly: every truncation of a valid buffer
// must produce a sticky error, never a panic or silent zero data.
func TestTruncatedInputFailsCleanly(t *testing.T) {
	var w Writer
	w.U64s([]uint64{1, 2, 3})
	w.RLE(bytes.Repeat([]byte{1}, 64))
	w.String("tail")
	full := w.Bytes()
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		r.U64sInto(nil)
		r.RLEInto(nil, 64)
		_ = r.String() // decoded only for the error it leaves in r
		if r.Err() == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

// TestCorruptLengthRejected: an absurd length prefix must be rejected
// by the remaining-bytes bound, not allocated.
func TestCorruptLengthRejected(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 50) // claimed element count with no data behind it
	r := NewReader(w.Bytes())
	if got := r.U64sInto(nil); len(got) != 0 || r.Err() == nil {
		t.Fatalf("corrupt length accepted: %d elems, err %v", len(got), r.Err())
	}
}

func TestReuseBuffers(t *testing.T) {
	var w Writer
	w.U64s([]uint64{1, 2})
	w.U16s([]uint16{3})
	w.RLE([]byte{4, 5, 6})
	r := NewReader(w.Bytes())
	big64 := make([]uint64, 0, 128)
	big16 := make([]uint16, 0, 128)
	big8 := make([]byte, 0, 128)
	g64 := r.U64sInto(big64)
	g16 := r.U16sInto(big16)
	g8 := r.RLEInto(big8, 3)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if &g64[0] != &big64[:1][0] || &g16[0] != &big16[:1][0] || &g8[0] != &big8[:1][0] {
		t.Fatal("Into variants did not reuse caller buffers")
	}
	if !slices.Equal(g64, []uint64{1, 2}) || !slices.Equal(g16, []uint16{3}) || !bytes.Equal(g8, []byte{4, 5, 6}) {
		t.Fatal("values wrong after reuse")
	}
}

// TestRLELengthFixedByCaller: a declared length other than the one the
// caller expects is rejected before any allocation, whichever way it
// differs — a few input bytes can declare a zero run of any size.
func TestRLELengthFixedByCaller(t *testing.T) {
	var w Writer
	w.RLE(make([]byte, 1<<20))
	for _, want := range []int{0, 1<<20 - 1, 1<<20 + 1, -1} {
		r := NewReader(w.Bytes())
		if got := r.RLEInto(nil, want); len(got) != 0 || r.Err() == nil {
			t.Errorf("want %d: accepted a %d-byte slab (err %v)", want, 1<<20, r.Err())
		}
	}
	r := NewReader(w.Bytes())
	if got := r.RLEInto(nil, 1<<20); len(got) != 1<<20 || r.Err() != nil {
		t.Fatalf("exact length rejected: %d bytes, err %v", len(got), r.Err())
	}
}
