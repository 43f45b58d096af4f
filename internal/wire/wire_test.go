package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xab)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendU16(b, 0xbeef)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63|42)
	b = AppendI64(b, -7)
	b = AppendF32(b, 3.25)
	b = AppendBytes(b, []byte("blob"))
	b = AppendString(b, "name")
	b = AppendU32s(b, []uint32{1, 2, 3})
	b = AppendBools(b, []bool{true, false, true})

	r := NewReader(b)
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := r.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63|42 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.I64(); v != -7 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.F32(); v != 3.25 {
		t.Errorf("F32 = %g", v)
	}
	if v := r.Bytes(); string(v) != "blob" {
		t.Errorf("Bytes = %q", v)
	}
	if v := r.Bytes(); string(v) != "name" { // AppendString's layout is AppendBytes'
		t.Errorf("AppendString read back as %q", v)
	}
	u32s := make([]uint32, 3)
	if r.ReadU32s(u32s); u32s[0] != 1 || u32s[2] != 3 {
		t.Errorf("ReadU32s = %v", u32s)
	}
	bools := make([]bool, 3)
	if r.ReadBools(bools); !bools[0] || bools[1] {
		t.Errorf("ReadBools = %v", bools)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("leftover %d bytes", r.Len())
	}
}

func TestTruncation(t *testing.T) {
	b := AppendU64(nil, 99)
	r := NewReader(b[:5])
	if v := r.U64(); v != 0 {
		t.Errorf("truncated U64 = %d, want 0", v)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// The error latches: later reads stay zero with the same error.
	if v := r.U32(); v != 0 {
		t.Errorf("post-error U32 = %d", v)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("latched Err = %v", r.Err())
	}
}

func TestHostileLength(t *testing.T) {
	// A length field claiming 1 GiB of uint32s with 4 bytes of payload must
	// fail with ErrCorrupt and leave the destination as it was.
	b := AppendU32(nil, 1<<28)
	b = AppendU32(b, 7)
	r := NewReader(b)
	dst := []uint32{42}
	if r.ReadU32s(dst); dst[0] != 42 {
		t.Errorf("hostile ReadU32s wrote %v", dst)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}
}

// Length and Index accept exactly the values that fit, and name the offset
// of one that does not.
func TestLengthAndIndex(t *testing.T) {
	b := AppendU32(nil, 3)
	b = AppendI64(b, 1)
	r := NewReader(b)
	r.Length(3)
	if i := r.Index(2); i != 1 || r.Err() != nil {
		t.Fatalf("Index = %d, Err = %v", i, r.Err())
	}

	for _, tc := range []struct {
		name string
		read func(r *Reader)
		want string
	}{
		{"length short", func(r *Reader) { r.Length(4) }, "length 3 at offset 0, want 4"},
		{"length long", func(r *Reader) { r.Length(2) }, "length 3 at offset 0, want 2"},
		{"index at n", func(r *Reader) { r.U32(); r.Index(1) }, "index 1 at offset 4 outside [0, 1)"},
	} {
		r := NewReader(b)
		tc.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: Err = %v, want ErrCorrupt naming %q", tc.name, r.Err(), tc.want)
		}
	}

	b = AppendI64(nil, -1)
	r = NewReader(b)
	if i := r.Index(2); i != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Index(-1) = %d, Err = %v; want 0 and ErrCorrupt", i, r.Err())
	}
}

func TestCount(t *testing.T) {
	b := make([]byte, 58)
	if n := NewReader(b).Count(2, 29); n != 2 {
		t.Errorf("Count fitting exactly = %d, want 2", n)
	}

	for _, tc := range []struct {
		name        string
		n, elemSize int
	}{
		{"short by one byte", 1, 59},
		{"negative", -1, 1},
		{"u32 max at 58 bytes", 1<<32 - 1, 58},
		{"n*elemSize overflows int", math.MaxInt/4 + 1, 4},
	} {
		r := NewReader(b)
		if n := r.Count(tc.n, tc.elemSize); n != 0 {
			t.Errorf("%s: Count = %d, want 0", tc.name, n)
		}
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: Err = %v, want ErrCorrupt", tc.name, r.Err())
		}
	}

	// Once an error is latched, even a count that fits reads as 0.
	r := NewReader(b[:2])
	r.U32()
	if n := r.Count(0, 1); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Count after latched error = %d, Err = %v", n, r.Err())
	}
}

func TestRaw(t *testing.T) {
	b := []byte("RDLMxyz")
	r := NewReader(b)
	v := r.Raw(4)
	if string(v) != "RDLM" {
		t.Fatalf("Raw = %q", v)
	}
	b[0] = 'X'
	if v[0] != 'X' {
		t.Error("Raw copied its bytes; want them to alias the input")
	}
	if v := r.Raw(4); v != nil {
		t.Errorf("Raw past the end = %q, want nil", v)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
}
