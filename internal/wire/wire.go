// Package wire provides the repo's one set of length-checked little-endian
// binary primitives: the trace format (internal/trace), simulator
// checkpoints (internal/gpusim and the AppendState/ReadState methods of the
// components it holds) and the on-disk store framing (internal/store) all
// encode through the same Append* helpers and decode through the same
// error-latching Reader, so torn, corrupted or hostile bytes surface as a
// typed error instead of a panic or a multi-gigabyte allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is wrapped by every Reader failure caused by running out of
// bytes — the signature of a torn write.
var ErrTruncated = errors.New("wire: truncated input")

// ErrCorrupt is wrapped by Reader failures caused by implausible values
// (e.g. a slice length exceeding the remaining input).
var ErrCorrupt = errors.New("wire: corrupt input")

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendU16 appends a little-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends a little-endian int64.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF32 appends a float32 by bit pattern.
func AppendF32(b []byte, v float32) []byte { return AppendU32(b, math.Float32bits(v)) }

// AppendBytes appends a u32 length prefix followed by the bytes.
func AppendBytes(b, v []byte) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(b []byte, v string) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// AppendU32s appends a u32 length prefix followed by the values.
func AppendU32s(b []byte, v []uint32) []byte {
	b = AppendU32(b, uint32(len(v)))
	for _, x := range v {
		b = AppendU32(b, x)
	}
	return b
}

// AppendBools appends a u32 length prefix followed by one byte per value.
func AppendBools(b []byte, v []bool) []byte {
	b = AppendU32(b, uint32(len(v)))
	for _, x := range v {
		b = AppendBool(b, x)
	}
	return b
}

// Reader consumes a byte slice with latched errors: after the first failure
// every subsequent read returns the zero value, and Err reports what went
// wrong, so decode paths read straight through and check once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error the reader hit, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// fail latches the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, or nil after latching an error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.b)))
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if v := r.take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if v := r.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if v := r.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F32 reads a float32 by bit pattern.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// Raw returns the next n bytes. They alias the input: copy them to keep
// them past the input's lifetime.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Count validates n, an element count read from the input at any width,
// against the remaining input, assuming each element occupies at least
// elemSize bytes, and returns it; a count the input cannot hold latches
// ErrCorrupt and returns 0. This is the guard that keeps a corrupted length
// field from allocating unbounded memory.
func (r *Reader) Count(n, elemSize int) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Len()/elemSize {
		r.fail(fmt.Errorf("%w: count %d of %d-byte elements exceeds %d remaining bytes", ErrCorrupt, n, elemSize, r.Len()))
		return 0
	}
	return n
}

// Bytes reads a u32-length-prefixed byte slice (copied out of the input).
func (r *Reader) Bytes() []byte {
	n := r.Count(int(r.U32()), 1)
	v := r.take(n)
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// Length reads a u32 length prefix that must equal want, the length of the
// live storage it is read into; any other value latches ErrCorrupt. It is
// Count's counterpart for decoders that fill storage sized by their own
// configuration instead of allocating from the input.
func (r *Reader) Length(want int) {
	off := r.off
	if n := r.U32(); r.err == nil && int64(n) != int64(want) {
		r.fail(fmt.Errorf("%w: length %d at offset %d, want %d", ErrCorrupt, n, off, want))
	}
}

// Index reads an i64 index into storage of n entries. A value outside
// [0, n) latches ErrCorrupt and reads as 0.
func (r *Reader) Index(n int) int {
	off := r.off
	v := r.I64()
	if r.err == nil && (v < 0 || v >= int64(n)) {
		r.fail(fmt.Errorf("%w: index %d at offset %d outside [0, %d)", ErrCorrupt, v, off, n))
		return 0
	}
	return int(v)
}

// ReadU32s reads a u32-length-prefixed []uint32 into dst; the prefix must
// equal len(dst).
func (r *Reader) ReadU32s(dst []uint32) {
	r.Length(len(dst))
	if v := r.take(4 * len(dst)); v != nil {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(v[4*i:])
		}
	}
}

// ReadBools reads a u32-length-prefixed []bool into dst; the prefix must
// equal len(dst).
func (r *Reader) ReadBools(dst []bool) {
	r.Length(len(dst))
	if v := r.take(len(dst)); v != nil {
		for i, x := range v {
			dst[i] = x != 0
		}
	}
}
