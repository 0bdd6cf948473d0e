package keycrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wrapping errors.
var (
	// ErrAuthFailure indicates the ciphertext failed authentication: either
	// it was corrupted in transit or the wrong unwrapping key was used.
	ErrAuthFailure = errors.New("keycrypt: key unwrap authentication failure")
	// ErrMalformed indicates a wrapped-key blob is structurally invalid.
	ErrMalformed = errors.New("keycrypt: malformed wrapped key")
)

const (
	nonceSize = 12
	gcmTag    = 16
	// wrappedHeader is KeyID(8) + Version(4) for the payload key, then
	// KeyID(8) + Version(4) for the wrapping key.
	wrappedHeader = 24
	// WrappedSize is the on-the-wire size of one wrapped key: header,
	// nonce, ciphertext (KeySize) and GCM tag. Transport-layer packing
	// computes packet capacities from this constant.
	WrappedSize = wrappedHeader + nonceSize + KeySize + gcmTag
)

// WrappedKey is one encrypted key as carried in a rekey message: the payload
// key (identified by PayloadID/PayloadVersion) encrypted under the wrapping
// key (identified by WrapperID/WrapperVersion).
//
// Receivers use the wrapper identity to decide whether they hold the key
// needed to unwrap the payload — this is the "sparseness" property rekey
// transport protocols exploit.
type WrappedKey struct {
	PayloadID      KeyID
	PayloadVersion Version
	WrapperID      KeyID
	WrapperVersion Version
	nonce          [nonceSize]byte
	ct             [KeySize + gcmTag]byte
}

// Wrap encrypts payload under wrapper using AES-256-GCM. The random source
// rng supplies the nonce; nil means crypto/rand.Reader. It expands the
// wrapping key's schedule for this one call and keeps nothing: callers that
// wrap under the same key epoch after epoch own a Wrapper instead.
func Wrap(payload, wrapper Key, rng io.Reader) (WrappedKey, error) {
	var uncached *Wrapper
	return uncached.Wrap(payload, wrapper, rng)
}

// Unwrap decrypts w under wrapper and returns the payload key. The wrapper's
// ID and version must match the ones recorded in the wrapped blob.
func Unwrap(w WrappedKey, wrapper Key) (Key, error) {
	var u Unwrapper
	return u.Unwrap(w, wrapper)
}

// Unwrapper is Unwrap that keeps the last wrapping key's schedule, so a run
// of items under one key — a joiner's path arrives as one item per level,
// all under its leaf key — expands that key once. It holds at most one
// schedule; a receiver keeps one for the duration of a payload and drops
// it. The zero value is ready to use. It is not safe for concurrent use.
type Unwrapper struct {
	key  Key
	aead cipher.AEAD
}

// Unwrap is the package-level Unwrap, reusing the schedule of the previous
// call when wrapper is bit-identical to its wrapping key.
func (u *Unwrapper) Unwrap(w WrappedKey, wrapper Key) (Key, error) {
	if wrapper.ID != w.WrapperID || wrapper.Version != w.WrapperVersion {
		return Key{}, fmt.Errorf("%w: blob wants wrapper %s.v%d, got %s.v%d",
			ErrAuthFailure, w.WrapperID, w.WrapperVersion, wrapper.ID, wrapper.Version)
	}
	if u.aead == nil || !u.key.Equal(wrapper) {
		aead, err := newGCM(wrapper)
		if err != nil {
			return Key{}, err
		}
		u.key, u.aead = wrapper, aead
	}
	s := wrapScratchPool.Get().(*wrapScratch)
	defer wrapScratchPool.Put(s)
	fillAdditionalData(&s.ad, w)
	s.nonce, s.ct = w.nonce, w.ct // views of w would move it to the heap
	pt, err := u.aead.Open(s.pt[:0], s.nonce[:], s.ct[:], s.ad[:])
	if err != nil {
		return Key{}, ErrAuthFailure
	}
	return NewKey(w.PayloadID, w.PayloadVersion, pt)
}

// Marshal serializes the wrapped key into exactly WrappedSize bytes.
func (w WrappedKey) Marshal() []byte {
	return w.AppendTo(make([]byte, 0, WrappedSize))
}

// AppendTo appends the WrappedSize-byte encoding of the wrapped key to buf
// and returns the extended slice. Batch encoders presize one buffer and
// append every item into it instead of paying one allocation per Marshal.
func (w WrappedKey) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(w.PayloadID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.PayloadVersion))
	buf = binary.BigEndian.AppendUint64(buf, uint64(w.WrapperID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.WrapperVersion))
	buf = append(buf, w.nonce[:]...)
	buf = append(buf, w.ct[:]...)
	return buf
}

// UnmarshalWrapped parses a blob produced by Marshal.
func UnmarshalWrapped(b []byte) (WrappedKey, error) {
	if len(b) != WrappedSize {
		return WrappedKey{}, fmt.Errorf("%w: need %d bytes, got %d", ErrMalformed, WrappedSize, len(b))
	}
	var w WrappedKey
	w.PayloadID = KeyID(binary.BigEndian.Uint64(b[0:8]))
	w.PayloadVersion = Version(binary.BigEndian.Uint32(b[8:12]))
	w.WrapperID = KeyID(binary.BigEndian.Uint64(b[12:20]))
	w.WrapperVersion = Version(binary.BigEndian.Uint32(b[20:24]))
	copy(w.nonce[:], b[24:24+nonceSize])
	copy(w.ct[:], b[24+nonceSize:])
	return w, nil
}

func newGCM(k Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(k.bits[:])
	if err != nil {
		return nil, fmt.Errorf("keycrypt: building AES cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("keycrypt: building GCM: %w", err)
	}
	return aead, nil
}

// fillAdditionalData writes the AEAD additional data into a caller-owned
// buffer (hot paths pool it to stay allocation-free). It binds the header
// fields into the AEAD so an attacker cannot re-label a wrapped key as
// belonging to a different tree node or version.
func fillAdditionalData(ad *[wrappedHeader]byte, w WrappedKey) {
	binary.BigEndian.PutUint64(ad[0:8], uint64(w.PayloadID))
	binary.BigEndian.PutUint32(ad[8:12], uint32(w.PayloadVersion))
	binary.BigEndian.PutUint64(ad[12:20], uint64(w.WrapperID))
	binary.BigEndian.PutUint32(ad[20:24], uint32(w.WrapperVersion))
}
