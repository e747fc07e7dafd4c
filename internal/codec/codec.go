// Package codec is the tree's one byte writer/reader pair: big-endian
// fixed-width integers, canonical uvarints, fixed 20- and 32-byte
// fields, length-prefixed byte strings and bounded element counts. The
// cluster wire (internal/p2p) and every binary disk record — the
// service's journal and checkpoint, the chain's block, head and account
// records — are written and parsed through it.
//
// The reader is defensive by construction: every read is bounds-checked,
// the first failure latches one error and every later read returns zero
// values (so decode paths stay linear, without per-field error
// plumbing), a length or count is checked against its cap BEFORE
// anything is allocated, and nothing panics on adversarial input.
// FuzzCodecReader pins those properties for the primitives; each format
// built on them has its own fuzzer.
package codec

import (
	"encoding/binary"
	"fmt"

	"tinyevm/internal/types"
)

// DiskFormat is the first byte of every binary disk record. The records
// it replaced were JSON objects, whose first byte is '{' (0x7b): no
// version of this byte may ever take that value, so a binary decoder
// handed JSON refuses it at offset 0. Which store formats a build opens
// is decided by the stamp in the service's meta record, never by
// sniffing a record.
const DiskFormat byte = 0x02

// Writer appends fields to Buf.
type Writer struct{ Buf []byte }

// NewRecord returns a Writer over buf[:0] that has written the disk
// format byte.
func NewRecord(buf []byte) *Writer { return &Writer{Buf: append(buf[:0], DiskFormat)} }

func (w *Writer) U8(v byte)    { w.Buf = append(w.Buf, v) }
func (w *Writer) U32(v uint32) { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64) { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }

// Uvarint appends v in the minimal base-128 form.
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func (w *Writer) Hash(h types.Hash)    { w.Buf = append(w.Buf, h[:]...) }
func (w *Writer) Addr(a types.Address) { w.Buf = append(w.Buf, a[:]...) }

// Raw appends b with no length prefix (a fixed-width field).
func (w *Writer) Raw(b []byte) { w.Buf = append(w.Buf, b...) }

// Bytes appends a u32 length and then b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// String is Bytes for a string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Reader is a bounds-checked cursor over one encoded message.
type Reader struct {
	buf  []byte
	off  int
	err  error
	base error
}

// NewReader reads buf; every error it reports wraps base, the caller's
// "malformed input" sentinel.
func NewReader(buf []byte, base error) *Reader { return &Reader{buf: buf, base: base} }

// OpenRecord is NewReader for a disk record: it consumes and checks the
// format byte.
func OpenRecord(buf []byte, base error) *Reader {
	r := NewReader(buf, base)
	if f := r.U8(); r.err == nil && f != DiskFormat {
		r.Fail("format byte %#02x, want %#02x", f, DiskFormat)
	}
	return r
}

// Fail latches an error (the first one wins).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.base}, args...)...)
	}
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are left to read.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns the latched error, or an error when input is left over:
// a message must be consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// need reserves n bytes, returning false (and latching the error) when
// the input is short.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.Fail("truncated (need %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		return false
	}
	return true
}

func (r *Reader) U8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Uvarint reads a base-128 integer, refusing overflow and any form but
// the minimal one, so a value has exactly one encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint at offset %d of %d", r.off, len(r.buf))
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.Fail("non-minimal uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("flag byte %#02x", v)
	}
	return v == 1
}

func (r *Reader) Hash() (h types.Hash) {
	copy(h[:], r.Fixed(len(h)))
	return h
}

func (r *Reader) Addr() (a types.Address) {
	copy(a[:], r.Fixed(len(a)))
	return a
}

// Fixed returns the next n bytes as a view into the input (nil once the
// reader has failed).
func (r *Reader) Fixed(n int) []byte {
	if !r.need(n) {
		return nil
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// View reads a length-prefixed byte string as a view into the input,
// rejecting a claimed length above max. An empty string reads as nil.
func (r *Reader) View(max int) []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > max {
		r.Fail("byte string of %d exceeds cap %d", n, max)
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.Fixed(n)
}

// Bytes is View into a fresh allocation, made only after the length has
// passed both the cap and the bounds check.
func (r *Reader) Bytes(max int) []byte {
	v := r.View(max)
	if r.err != nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// String is View as a string.
func (r *Reader) String(max int) string { return string(r.View(max)) }

// Count reads an element count, rejecting a claim above max. A decoder
// with no protocol cap passes Remaining()/minimum element size, so what
// it allocates stays proportional to the input.
func (r *Reader) Count(max int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if max < 0 || uint64(n) > uint64(max) {
		r.Fail("element count %d exceeds cap %d", n, max)
		return 0
	}
	return int(n)
}
