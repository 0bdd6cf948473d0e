package keycrypt

import (
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
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
// A Wrapper is safe for concurrent use. A single wrap's cache hit takes
// the read lock; a WrapBatch takes it once for all of its wraps, and a
// miss, a batch's new schedules and Invalidate take the write lock.
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
	e := wr.lookup(&wrapper)
	wr.mu.RUnlock()
	if e != nil {
		return e.aead, nil
	}
	aead, err := newGCM(wrapper)
	if err != nil {
		return nil, err
	}
	wr.mu.Lock()
	wr.putLocked(&wrapperEntry{key: wrapper, aead: aead})
	wr.mu.Unlock()
	return aead, nil
}

// putLocked caches e in its key's slot, replacing the slot's entry in
// place. A new slot at the cap first drops a random quarter of the entries
// (map order). The caller holds the write lock.
func (wr *Wrapper) putLocked(e *wrapperEntry) {
	if _, replace := wr.entries[e.key.ID]; !replace && len(wr.entries) >= maxWrapperEntries {
		drop := maxWrapperEntries / 4
		for id := range wr.entries {
			delete(wr.entries, id)
			if drop--; drop == 0 {
				break
			}
		}
	}
	wr.entries[e.key.ID] = e
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
	var w WrappedKey
	s := wrapScratchPool.Get().(*wrapScratch)
	err = sealInto(&w, aead, s, &payload, &wrapper, &nonce)
	wrapScratchPool.Put(s)
	if err != nil {
		return WrappedKey{}, err
	}
	return w, nil
}

// sealInto writes the wrap of payload under wrapper, whose schedule aead
// is, into dst, using s as working memory.
func sealInto(dst *WrappedKey, aead cipher.AEAD, s *wrapScratch, payload, wrapper *Key, nonce *[NonceSize]byte) error {
	*dst = WrappedKey{
		PayloadID:      payload.ID,
		PayloadVersion: payload.Version,
		WrapperID:      wrapper.ID,
		WrapperVersion: wrapper.Version,
		nonce:          *nonce,
	}
	fillAdditionalData(&s.ad, *dst)
	copy(s.pt[:], payload.bits[:])
	s.nonce = *nonce // the stack copy would escape into the AEAD call
	ct := aead.Seal(s.ct[:0], s.nonce[:], s.pt[:], s.ad[:])
	if len(ct) != len(dst.ct) {
		return fmt.Errorf("keycrypt: unexpected ciphertext length %d", len(ct))
	}
	copy(dst.ct[:], ct)
	return nil
}

// WrapJobs is a batch of planned wraps for WrapBatch, indexed from 0 to
// Len()-1.
type WrapJobs interface {
	Len() int
	// Job returns wrap i's payload key, wrapping key and nonce, and the
	// slot its wrapped key is written to. Distinct jobs name distinct
	// slots, and nothing else reads or writes them during the batch.
	Job(i int) (payload, wrapper *Key, nonce *[NonceSize]byte, dst *WrappedKey)
}

// keepPerBatch is how many of the schedules it builds a batch keeps for
// the cache merge, split evenly between its workers. A batch that builds
// more is a bulk load, a tree's first batch with every joiner under a new
// leaf key: keeping half the cap leaves room for the keys the batches
// after it use, and bounds what it holds until the pool joins.
const keepPerBatch = maxWrapperEntries / 2

// wrapChunk is how many consecutive jobs a batch worker claims at a time.
// A batch of one chunk runs inline: below that, starting a goroutine costs
// more than the AES work it would take over.
const wrapChunk = 32

// WrapBatch makes every wrap of jobs, each the WrapNonce of its job, on at
// most workers goroutines, the caller's among them. The output is the same
// for any worker count.
//
// The batch holds the read lock for its whole run, so its workers read the
// cache without locking. Each worker claims wrapChunk consecutive jobs at a
// time, the chunk's edges moved so that a run of jobs under one key (a
// joiner's path under its leaf key) is never split, and first tries the
// schedule of its previous wrap: a run expands or looks up its key once.
// The schedules a worker builds stay private to it until the pool has
// joined. Then they enter the cache under one write lock, each put as a
// WrapNonce miss puts it, unless the cache holds that key or a newer
// version of its slot by then; a batch keeps at most keepPerBatch of
// them.
//
// It returns the first error in worker order. A worker that fails stops;
// the others run until the jobs run out.
func (wr *Wrapper) WrapBatch(jobs WrapJobs, workers int) error {
	n := jobs.Len()
	if n == 0 {
		return nil
	}
	wr.mu.RLock()
	var solo [1]batchWorker
	ws := solo[:]
	if workers = min(workers, (n+wrapChunk-1)/wrapChunk); workers > 1 {
		ws = runWrapPool(wr, jobs, n, workers)
	} else {
		solo[0].keep = keepPerBatch
		solo[0].run(wr, jobs, 0, n)
	}
	wr.mu.RUnlock()
	wr.merge(ws)
	for i := range ws {
		if ws[i].err != nil {
			return ws[i].err
		}
	}
	return nil
}

// runWrapPool runs the batch on workers workers, the caller's goroutine
// being the first, and returns them once all have finished.
func runWrapPool(wr *Wrapper, jobs WrapJobs, n, workers int) []batchWorker {
	ws := make([]batchWorker, workers)
	for i := range ws {
		ws[i].keep = keepPerBatch / workers
	}
	var next atomic.Int64
	claim := func(w *batchWorker) {
		for w.err == nil {
			lo := int(next.Add(1)-1) * wrapChunk
			if lo >= n {
				return
			}
			lo, hi := runEdges(jobs, lo, min(lo+wrapChunk, n), n)
			w.run(wr, jobs, lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer wg.Done()
			claim(&ws[i])
		}()
	}
	claim(&ws[0])
	wg.Wait()
	return ws
}

// runEdges moves a chunk's edges to the ends of runs of jobs under one
// wrapping key, so that one worker makes each run: the worker whose chunk
// the run starts in, however many chunks it crosses.
func runEdges(jobs WrapJobs, lo, hi, n int) (int, int) {
	for lo > 0 && lo < hi && sameWrapper(jobs, lo-1, lo) {
		lo++
	}
	for lo < hi && hi < n && sameWrapper(jobs, hi-1, hi) {
		hi++
	}
	return lo, hi
}

// sameWrapper reports whether jobs i and j name the same wrapping key slot
// and version.
func sameWrapper(jobs WrapJobs, i, j int) bool {
	_, a, _, _ := jobs.Job(i)
	_, b, _, _ := jobs.Job(j)
	return a.ID == b.ID && a.Version == b.Version
}

// batchWorker is one WrapBatch worker's private state.
type batchWorker struct {
	last  *wrapperEntry   // the schedule of the previous wrap
	built []*wrapperEntry // schedules built here, for the cache merge
	keep  int             // how many built schedules it keeps for the merge
	err   error
}

// run makes jobs lo to hi-1. The batch holds wr's read lock.
func (w *batchWorker) run(wr *Wrapper, jobs WrapJobs, lo, hi int) {
	s := wrapScratchPool.Get().(*wrapScratch)
	defer wrapScratchPool.Put(s)
	for i := lo; i < hi; i++ {
		payload, wrapper, nonce, dst := jobs.Job(i)
		if w.last == nil || !w.last.key.Equal(*wrapper) {
			if w.last = wr.lookup(wrapper); w.last == nil {
				aead, err := newGCM(*wrapper)
				if err != nil {
					w.err = fmt.Errorf("keycrypt: wrapping %s under %s: %w", payload.ID, wrapper.ID, err)
					return
				}
				w.last = &wrapperEntry{key: *wrapper, aead: aead}
				if len(w.built) < w.keep {
					w.built = append(w.built, w.last)
				}
			}
		}
		if err := sealInto(dst, w.last.aead, s, payload, wrapper, nonce); err != nil {
			w.err = err
			return
		}
	}
}

// lookup returns the cached entry for k, or nil. The caller holds the
// lock.
func (wr *Wrapper) lookup(k *Key) *wrapperEntry {
	if e := wr.entries[k.ID]; e != nil && e.key.Equal(*k) {
		return e
	}
	return nil
}

// merge puts the schedules a batch's workers built into the cache.
func (wr *Wrapper) merge(ws []batchWorker) {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	for i := range ws {
		for _, e := range ws[i].built {
			if cur := wr.entries[e.key.ID]; cur != nil && (cur.key.Version > e.key.Version || cur.key.Equal(e.key)) {
				continue
			}
			wr.putLocked(e)
		}
	}
}

// sharedWrapper backs Seal. Its keys are few and long-lived — a group's
// data key, a store's master key, a client's individual key — so caching
// them process-wide costs little. The full-key equality check makes sharing
// across independent groups safe even when their key-ID spaces collide.
var sharedWrapper = NewWrapper()
