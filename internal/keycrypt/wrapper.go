package keycrypt

import (
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
	"sync"
)

// NonceSize is the AES-GCM nonce size used for key wrapping. Rekey engines
// that pre-draw nonces — so payload bytes stay deterministic no matter how
// wrap emission is scheduled — size their job buffers with it.
const NonceSize = nonceSize

// maxWrapperEntries bounds a Wrapper's cache at roughly 28 MB of expanded
// schedules (about 850 B each). Its owners invalidate the keys they retire,
// so the entries are live keys, but not all of them recur soon: a key tree
// wraps under a leaf key whenever the leaf's parent is refreshed, so its
// leaf keys — N of them, against N/(d-1) interior keys — are what fills the
// cap once a tree passes ~30k members. When an insert of a new key slot
// would exceed it, a random quarter of the entries is dropped (map order);
// a version bump replaces its slot in place and drops nothing.
const maxWrapperEntries = 32768

// Wrapper wraps keys like the package-level Wrap but caches one
// cipher.AEAD per wrapping-key slot, so the AES-256 key schedule and GCM
// table setup are paid once per key generation instead of once per emitted
// wrap. A cached entry is used only while the cached key is bit-identical
// to the requested one (ID, version and material, constant-time compared),
// so a version bump — or an unrelated key reusing the same slot ID —
// invalidates it naturally.
//
// A Wrapper is safe for concurrent use; cache hits take only a read lock.
// Cached AEADs hold expanded key schedules in memory for as long as the
// entry lives, so an owner calls Invalidate when it retires a key: the
// cache then holds only keys its owner may still wrap under. Wrap and
// WrapNonce on a nil *Wrapper cache nothing; the package-level Wrap is
// that.
type Wrapper struct {
	mu      sync.RWMutex
	entries map[KeyID]*wrapperEntry
}

type wrapperEntry struct {
	key  Key
	aead cipher.AEAD
}

// NewWrapper returns an empty cache.
func NewWrapper() *Wrapper {
	return &Wrapper{entries: make(map[KeyID]*wrapperEntry)}
}

// aead returns the AEAD for the wrapping key, computing and caching the key
// schedule on miss.
func (wr *Wrapper) aead(wrapper Key) (cipher.AEAD, error) {
	if wr == nil {
		return newGCM(wrapper)
	}
	wr.mu.RLock()
	e := wr.entries[wrapper.ID]
	wr.mu.RUnlock()
	if e != nil && e.key.Equal(wrapper) {
		return e.aead, nil
	}
	aead, err := newGCM(wrapper)
	if err != nil {
		return nil, err
	}
	wr.mu.Lock()
	if _, replace := wr.entries[wrapper.ID]; !replace && len(wr.entries) >= maxWrapperEntries {
		drop := maxWrapperEntries / 4
		for id := range wr.entries {
			delete(wr.entries, id)
			if drop--; drop == 0 {
				break
			}
		}
	}
	wr.entries[wrapper.ID] = &wrapperEntry{key: wrapper, aead: aead}
	wr.mu.Unlock()
	return aead, nil
}

// Len returns the number of cached key schedules.
func (wr *Wrapper) Len() int {
	wr.mu.RLock()
	defer wr.mu.RUnlock()
	return len(wr.entries)
}

// Invalidate drops the cached schedule for a key slot when its owner
// retires the slot: a departed leaf, a spliced interior, a departed
// member's individual key. Wrapping under a bumped version of the slot does
// not require it: the key-equality check misses and replaces the entry in
// place.
func (wr *Wrapper) Invalidate(id KeyID) {
	wr.mu.Lock()
	delete(wr.entries, id)
	wr.mu.Unlock()
}

// Wrap is the cached equivalent of the package-level Wrap: it draws a
// nonce from rng (nil means crypto/rand.Reader) and encrypts payload under
// wrapper.
func (wr *Wrapper) Wrap(payload, wrapper Key, rng io.Reader) (WrappedKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var nonce [NonceSize]byte
	if _, err := io.ReadFull(rng, nonce[:]); err != nil {
		return WrappedKey{}, fmt.Errorf("keycrypt: reading nonce: %w", err)
	}
	return wr.WrapNonce(payload, wrapper, nonce)
}

// wrapScratch keeps the per-wrap working set off the heap: the additional
// data, a copy of the payload material and the ciphertext all escape into
// the AEAD interface call, so without pooling every wrap would allocate all
// three.
type wrapScratch struct {
	ad    [wrappedHeader]byte
	pt    [KeySize]byte
	ct    [KeySize + gcmTag]byte
	nonce [NonceSize]byte
}

var wrapScratchPool = sync.Pool{New: func() any { return new(wrapScratch) }}

// WrapNonce encrypts payload under wrapper using the caller-supplied nonce.
// It exists for emission engines that draw nonces in a canonical order
// during a single-threaded planning pass and then fan the AES-GCM work out
// over workers: given the same nonce, the output is byte-for-byte identical
// to Wrap regardless of scheduling.
//
// The caller is responsible for nonce uniqueness per wrapping key, exactly
// as with any externally-supplied GCM nonce.
func (wr *Wrapper) WrapNonce(payload, wrapper Key, nonce [NonceSize]byte) (WrappedKey, error) {
	aead, err := wr.aead(wrapper)
	if err != nil {
		return WrappedKey{}, err
	}
	w := WrappedKey{
		PayloadID:      payload.ID,
		PayloadVersion: payload.Version,
		WrapperID:      wrapper.ID,
		WrapperVersion: wrapper.Version,
		nonce:          nonce,
	}
	s := wrapScratchPool.Get().(*wrapScratch)
	fillAdditionalData(&s.ad, w)
	copy(s.pt[:], payload.bits[:])
	s.nonce = nonce // the stack copy would escape into the AEAD call
	ct := aead.Seal(s.ct[:0], s.nonce[:], s.pt[:], s.ad[:])
	if len(ct) != len(w.ct) {
		wrapScratchPool.Put(s)
		return WrappedKey{}, fmt.Errorf("keycrypt: unexpected ciphertext length %d", len(ct))
	}
	copy(w.ct[:], ct)
	wrapScratchPool.Put(s)
	return w, nil
}

// sharedWrapper backs Seal. Its keys are few and long-lived — a group's
// data key, a store's master key, a client's individual key — so caching
// them process-wide costs little. The full-key equality check makes sharing
// across independent groups safe even when their key-ID spaces collide.
var sharedWrapper = NewWrapper()
