// Package snapcodec is the one encoder/decoder for every persisted or
// resumable blob: key-tree and scheme snapshots, the store's snapshot
// envelope and create record, member key stores and client state. A blob
// is a magic, then big-endian fields, key records and u32-length-prefixed
// sub-blobs. The Reader never allocates from a length it read; its first
// error sticks and wraps the caller's sentinel (each package keeps its
// own ErrBadSnapshot), and Close also rejects trailing bytes.
package snapcodec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"groupkey/internal/keycrypt"
)

// Writer appends fields to a blob.
type Writer struct{ buf []byte }

// NewWriter starts a blob with magic ("" for none).
func NewWriter(magic string) *Writer { return &Writer{buf: append([]byte(nil), magic...)} }

// grow makes room for n more bytes, doubling a full buffer: append grows
// large slices by about a quarter, which would cost multi-megabyte tree
// snapshots twice the allocated bytes.
func (w *Writer) grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.buf = slices.Grow(w.buf, len(w.buf)+n)
	}
}

func (w *Writer) U8(v uint8)   { w.grow(1); w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32) { w.grow(4); w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.grow(8); w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *Writer) Raw(b []byte) { w.grow(len(b)); w.buf = append(w.buf, b...) }

// Bool writes one byte, 1 for true.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Key writes one key record: id(8) version(4) material(32).
func (w *Writer) Key(k keycrypt.Key) {
	w.U64(uint64(k.ID))
	w.U32(uint32(k.Version))
	w.Raw(k.Bytes())
}

// Blob writes a u32 length prefix and b.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Bytes returns the blob written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader is a bounds-checked sequential reader with a sticky error.
type Reader struct {
	data []byte
	off  int
	bad  error
	err  error
}

// NewReader opens data, which must start with magic; every error the
// reader reports wraps bad.
func NewReader(data []byte, magic string, bad error) *Reader {
	r := &Reader{data: data, bad: bad}
	if m := r.Raw(len(magic)); r.err == nil && string(m) != magic {
		r.Fail("bad magic")
	}
	return r
}

// Fail records a structural error unless the reader already failed.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.bad}, args...)...)
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Close returns the first failure, or an error if bytes remain unread.
func (r *Reader) Close() error {
	if rest := len(r.data) - r.off; r.err == nil && rest != 0 {
		r.Fail("%d trailing bytes", rest)
	}
	return r.err
}

// Raw returns the next n bytes (aliasing the input), or nil once the
// reader has failed.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.data)-r.off {
		r.Fail("truncated")
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

// Rest returns every unread byte.
func (r *Reader) Rest() []byte { return r.Raw(len(r.data) - r.off) }

func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }

// zeros backs the reads of a failed reader.
var zeros [8]byte

// fixed reads n ≤ 8 bytes, or zeros once the reader has failed.
func (r *Reader) fixed(n int) []byte {
	if b := r.Raw(n); b != nil {
		return b
	}
	return zeros[:n]
}

// Bool reads one byte; anything but 0 or 1 fails the reader, so each
// value has one encoding.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("flag byte %d", v)
	}
	return v == 1
}

// Version reads a u32 version word and fails unless it is want.
func (r *Reader) Version(want uint32) {
	if v := r.U32(); r.err == nil && v != want {
		r.Fail("unsupported version %d", v)
	}
}

// Key reads one key record written by Writer.Key.
func (r *Reader) Key() keycrypt.Key {
	id, ver := keycrypt.KeyID(r.U64()), keycrypt.Version(r.U32())
	material := r.Raw(keycrypt.KeySize)
	if r.err != nil {
		return keycrypt.Key{}
	}
	k, _ := keycrypt.NewKey(id, ver, material) // only checks len(material)
	return k
}

// Blob reads a u32-length-prefixed sub-blob (aliasing the input).
func (r *Reader) Blob() []byte { return r.Raw(int(r.U32())) }
