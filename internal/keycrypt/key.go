// Package keycrypt provides the cryptographic substrate for logical-key-tree
// group key management: symmetric key material, authenticated key wrapping
// (encrypting one key under another), and the one-way key-derivation
// primitives needed by LKH and OFT style key trees.
//
// All primitives are built on the Go standard library (AES-GCM for wrapping,
// HMAC-SHA256 for derivation and blinding). Keys carry an identifier and a
// version so that rekey messages can name exactly which tree node and which
// generation of its key an encrypted blob refers to.
package keycrypt

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

// KeySize is the size in bytes of all symmetric keys managed by this package.
// AES-256 keys are used throughout.
const KeySize = 32

// KeyID names a logical key slot — typically a node of a logical key tree.
// IDs are assigned by the key server and are unique within a group.
type KeyID uint64

// String renders the ID in the form used in log output and wire traces.
func (id KeyID) String() string { return fmt.Sprintf("k%d", uint64(id)) }

// Version numbers a generation of a key slot. Every time the key server
// updates the key held in a slot (for example, because a member beneath that
// tree node departed) the version increments by one.
type Version uint32

// Key is a versioned symmetric key bound to a key slot.
//
// The zero value is an empty key with ID 0 and version 0; it is not valid for
// cryptographic use. Use Generator.New or Random to mint key material.
type Key struct {
	ID      KeyID
	Version Version
	bits    [KeySize]byte
}

// NewKey builds a Key from raw material. The material must be exactly
// KeySize bytes.
func NewKey(id KeyID, version Version, material []byte) (Key, error) {
	if len(material) != KeySize {
		return Key{}, fmt.Errorf("keycrypt: key material must be %d bytes, got %d", KeySize, len(material))
	}
	k := Key{ID: id, Version: version}
	copy(k.bits[:], material)
	return k, nil
}

// Bytes returns a copy of the raw key material.
func (k Key) Bytes() []byte {
	out := make([]byte, KeySize)
	copy(out, k.bits[:])
	return out
}

// Equal reports whether two keys hold identical material, ID and version.
// The material comparison is constant time.
func (k Key) Equal(other Key) bool {
	return k.ID == other.ID &&
		k.Version == other.Version &&
		subtle.ConstantTimeCompare(k.bits[:], other.bits[:]) == 1
}

// SameMaterial reports whether two keys hold identical material, ignoring
// ID and version. The comparison is constant time.
func (k Key) SameMaterial(other Key) bool {
	return subtle.ConstantTimeCompare(k.bits[:], other.bits[:]) == 1
}

// IsZero reports whether the key is the zero value (all-zero material and
// zero ID/version), i.e. unusable.
func (k Key) IsZero() bool {
	var zero [KeySize]byte
	return k.ID == 0 && k.Version == 0 && subtle.ConstantTimeCompare(k.bits[:], zero[:]) == 1
}

// Fingerprint returns a short hex fingerprint of the key material, suitable
// for logs and debugging. It leaks 4 bytes of a one-way digest, not raw key
// bits.
func (k Key) Fingerprint() string {
	d := digest(k.bits[:], []byte("fingerprint"))
	return hex.EncodeToString(d[:4])
}

// String implements fmt.Stringer without exposing key material.
func (k Key) String() string {
	return fmt.Sprintf("%s.v%d[%s]", k.ID, k.Version, k.Fingerprint())
}

// Generator mints fresh keys from a random source. A Generator with a nil
// Rand uses crypto/rand; tests may inject a deterministic reader.
//
// Generator is not safe for concurrent use unless the underlying reader is.
type Generator struct {
	// Rand is the entropy source. nil means crypto/rand.Reader.
	Rand io.Reader
}

// New mints a fresh key for slot id at the given version.
func (g *Generator) New(id KeyID, version Version) (Key, error) {
	r := g.Rand
	if r == nil {
		r = rand.Reader
	}
	k := Key{ID: id, Version: version}
	if _, err := io.ReadFull(r, k.bits[:]); err != nil {
		return Key{}, fmt.Errorf("keycrypt: reading entropy: %w", err)
	}
	return k, nil
}

// Refresh mints a replacement for k: same ID, version incremented, fresh
// material.
func (g *Generator) Refresh(k Key) (Key, error) {
	return g.New(k.ID, k.Version+1)
}

// Random returns a fresh key from crypto/rand. It panics only if the system
// entropy source fails, which is unrecoverable.
func Random(id KeyID, version Version) Key {
	var g Generator
	k, err := g.New(id, version)
	if err != nil {
		panic(fmt.Sprintf("keycrypt: system entropy failure: %v", err))
	}
	return k
}

// DeterministicReader is an io.Reader producing an unbounded pseudo-random
// stream derived from a seed by iterated HMAC-SHA256, so tests, simulations
// and replay can mint reproducible keys without non-stdlib dependencies.
// Its output is exactly as secret as its seed: production key material may
// come from it only under a seed that is fresh from crypto/rand and kept
// as secret as the keys, as the durable store does, one 32-byte seed per
// journaled record (NewSeededReader); a seed from NewDeterministicReader's
// uint64 is for tests and simulations only.
type DeterministicReader struct {
	state [32]byte
	buf   [32]byte
	used  int // bytes of buf already handed out
	// step and out are the two refill HMACs, keyed once and Reset per use:
	// the reader sits on rekey hot paths (every wrap nonce in a simulation
	// comes through here), so refills must not allocate.
	step hash.Hash
	out  hash.Hash
}

// NewDeterministicReader seeds a deterministic stream.
func NewDeterministicReader(seed uint64) *DeterministicReader {
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seed)
	return NewSeededReader(s[:])
}

// NewSeededReader seeds a deterministic stream from arbitrary seed bytes.
// NewDeterministicReader is the fixed-width uint64 convenience; the durable
// state store journals a fresh 32-byte crypto/rand seed per applied batch
// and replays key generation through a reader seeded with it, which is what
// makes crash recovery reproduce pre-crash key material exactly.
func NewSeededReader(seed []byte) *DeterministicReader {
	r := &DeterministicReader{
		used: 32, // buf starts empty
		step: hmac.New(sha256.New, []byte("detrand-step")),
		out:  hmac.New(sha256.New, []byte("detrand-out")),
	}
	r.state = digest(seed, []byte("detrand-seed"))
	return r
}

// Read fills p with the next bytes of the stream. It never fails.
func (r *DeterministicReader) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if r.used == len(r.buf) {
			r.step.Reset()
			r.step.Write(r.state[:])
			r.step.Sum(r.state[:0])
			r.out.Reset()
			r.out.Write(r.state[:])
			r.out.Sum(r.buf[:0])
			r.used = 0
		}
		c := copy(p, r.buf[r.used:])
		p = p[c:]
		r.used += c
	}
	return n, nil
}
