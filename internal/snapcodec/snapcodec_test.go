package snapcodec

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"groupkey/internal/keycrypt"
)

var errBad = errors.New("test: malformed blob")

func TestRoundTrip(t *testing.T) {
	key := keycrypt.Random(77, 5)
	w := NewWriter("TEST")
	w.U32(3)
	w.U8(9)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.Bool(true)
	w.Bool(false)
	w.Key(key)
	w.Blob([]byte("inner"))
	w.Blob(nil)
	w.Raw([]byte("tail"))

	r := NewReader(w.Bytes(), "TEST", errBad)
	r.Version(3)
	if r.U8() != 9 || r.U32() != 1<<30 || r.U64() != 1<<60 || !r.Bool() || r.Bool() {
		t.Fatal("fixed-width fields mangled")
	}
	if got := r.Key(); !got.Equal(key) {
		t.Fatalf("key mangled: %v", got)
	}
	if got := r.Blob(); string(got) != "inner" {
		t.Fatalf("blob %q", got)
	}
	if got := r.Blob(); len(got) != 0 {
		t.Fatalf("empty blob %q", got)
	}
	if got := r.Rest(); string(got) != "tail" {
		t.Fatalf("rest %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFailures: every failure wraps the caller's sentinel, sticks,
// and leaves later reads returning zero values.
func TestReaderFailures(t *testing.T) {
	w := NewWriter("TEST")
	w.U32(1)
	w.U64(42)
	good := w.Bytes()

	cases := map[string]struct {
		data []byte
		read func(r *Reader)
		want string
	}{
		"bad magic":    {append([]byte("XXXX"), good[4:]...), func(r *Reader) {}, "bad magic"},
		"short magic":  {[]byte("TE"), func(r *Reader) {}, "truncated"},
		"version":      {good, func(r *Reader) { r.Version(2) }, "unsupported version 1"},
		"truncated":    {good[:10], func(r *Reader) { r.Version(1); r.U64() }, "truncated"},
		"trailing":     {append(append([]byte{}, good...), 0), func(r *Reader) { r.Version(1); r.U64() }, "1 trailing bytes"},
		"corrupt blob": {append([]byte("TEST"), 0xff, 0xff, 0xff, 0xff, 1), func(r *Reader) { r.Blob() }, "truncated"},
		"flag byte":    {append([]byte("TEST"), 2), func(r *Reader) { r.Bool() }, "flag byte 2"},
	}
	for name, tc := range cases {
		r := NewReader(tc.data, "TEST", errBad)
		tc.read(r)
		err := r.Close()
		if !errors.Is(err, errBad) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want %q wrapping the sentinel", name, err, tc.want)
		}
		if r.U64() != 0 || r.Blob() != nil || !r.Key().IsZero() || r.Err() != err {
			t.Errorf("%s: a failed reader still returns data or changed its error", name)
		}
	}
}

// TestCorruptLengthAllocatesNothing: a sub-blob length far beyond the
// input fails the reader without allocating a buffer of that size.
func TestCorruptLengthAllocatesNothing(t *testing.T) {
	data := bytes.Repeat([]byte{0xff}, 8)
	allocs := testing.AllocsPerRun(100, func() {
		r := Reader{data: data, bad: errBad}
		r.Raw(int(r.U32()))
		r.Raw(1 << 40)
	})
	// Only the error value itself may be allocated.
	if allocs > 4 {
		t.Fatalf("%v allocations reading a corrupt length", allocs)
	}
}
