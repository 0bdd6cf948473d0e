package keycrypt

import (
	"bytes"
	"maps"
	"sync"
	"testing"
)

func testKey(t *testing.T, id KeyID, seed uint64) Key {
	t.Helper()
	g := Generator{Rand: NewDeterministicReader(seed)}
	k, err := g.New(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestWrapperCachesSchedule(t *testing.T) {
	wr := NewWrapper()
	wrapper := testKey(t, 1, 10)
	payload := testKey(t, 2, 20)

	if wr.Len() != 0 {
		t.Fatalf("fresh wrapper has %d entries", wr.Len())
	}
	w1, err := wr.Wrap(payload, wrapper, NewDeterministicReader(30))
	if err != nil {
		t.Fatal(err)
	}
	if wr.Len() != 1 {
		t.Fatalf("after one wrap: %d entries, want 1", wr.Len())
	}
	// A second wrap with the same nonce stream must produce identical bytes
	// through the cached schedule.
	w2, err := wr.Wrap(payload, wrapper, NewDeterministicReader(30))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Marshal(), w2.Marshal()) {
		t.Fatal("cached wrap differs from cold wrap")
	}
	// And it must round-trip.
	got, err := Unwrap(w2, wrapper)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(payload) {
		t.Fatal("unwrapped key differs from payload")
	}
}

func TestWrapperMatchesPackageWrap(t *testing.T) {
	wr := NewWrapper()
	wrapper := testKey(t, 7, 70)
	payload := testKey(t, 8, 80)
	a, err := wr.Wrap(payload, wrapper, NewDeterministicReader(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Wrap(payload, wrapper, NewDeterministicReader(9))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatal("Wrapper.Wrap and package Wrap disagree")
	}
}

func TestWrapperVersionBumpInvalidates(t *testing.T) {
	wr := NewWrapper()
	g := Generator{Rand: NewDeterministicReader(1)}
	k, err := g.New(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := testKey(t, 6, 60)
	if _, err := wr.Wrap(payload, k, nil); err != nil {
		t.Fatal(err)
	}
	bumped, err := g.Refresh(k)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wr.Wrap(payload, bumped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.WrapperVersion != bumped.Version {
		t.Fatalf("wrapped under version %d, want %d", w.WrapperVersion, bumped.Version)
	}
	// The wrap must decrypt under the bumped key, not the stale one.
	if _, err := Unwrap(w, bumped); err != nil {
		t.Fatalf("unwrap under bumped key: %v", err)
	}
	if _, err := Unwrap(w, k); err == nil {
		t.Fatal("unwrap under stale key unexpectedly succeeded")
	}
	if wr.Len() != 1 {
		t.Fatalf("bump should replace the entry in place: %d entries", wr.Len())
	}
}

// TestWrapperSameIDDifferentKey covers the cross-tree hazard the cache must
// survive: two independent key spaces using the same slot ID with different
// material (e.g. two trees with colliding WithFirstKeyID bases sharing the
// package-level wrapper).
func TestWrapperSameIDDifferentKey(t *testing.T) {
	wr := NewWrapper()
	a := testKey(t, 5, 111)
	b := testKey(t, 5, 222) // same ID, different material
	payload := testKey(t, 9, 90)

	wa, err := wr.Wrap(payload, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wr.Wrap(payload, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unwrap(wa, a); err != nil {
		t.Fatalf("unwrap under a: %v", err)
	}
	if _, err := Unwrap(wb, b); err != nil {
		t.Fatalf("unwrap under b: %v", err)
	}
	if _, err := Unwrap(wb, a); err == nil {
		t.Fatal("wrap under b decrypted with a: cache served a stale schedule")
	}
}

func TestWrapperInvalidate(t *testing.T) {
	wr := NewWrapper()
	wrapper := testKey(t, 3, 33)
	payload := testKey(t, 4, 44)
	if _, err := wr.Wrap(payload, wrapper, nil); err != nil {
		t.Fatal(err)
	}
	wr.Invalidate(wrapper.ID)
	if wr.Len() != 0 {
		t.Fatalf("after Invalidate: %d entries, want 0", wr.Len())
	}
	// Still functional after invalidation.
	if _, err := wr.Wrap(payload, wrapper, nil); err != nil {
		t.Fatal(err)
	}
	if wr.Len() != 1 {
		t.Fatalf("re-wrap should repopulate: %d entries", wr.Len())
	}
}

func TestWrapperBoundedGrowth(t *testing.T) {
	wr := NewWrapper()
	payload := testKey(t, 1, 1)
	for i := 0; i < maxWrapperEntries+10; i++ {
		k := testKey(t, KeyID(100+i), uint64(i))
		if _, err := wr.Wrap(payload, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if wr.Len() > maxWrapperEntries {
		t.Fatalf("cache grew to %d entries, cap is %d", wr.Len(), maxWrapperEntries)
	}
}

// A version bump at the cap replaces its slot in place: it must not trigger
// the random-quarter eviction, which is for inserts of new slots.
func TestWrapperVersionBumpAtCapKeepsEntries(t *testing.T) {
	wr := NewWrapper()
	payload := testKey(t, 1, 1)
	var last Key
	for i := 0; i < maxWrapperEntries; i++ {
		last = testKey(t, KeyID(100+i), uint64(i))
		if _, err := wr.Wrap(payload, last, nil); err != nil {
			t.Fatal(err)
		}
	}
	if wr.Len() != maxWrapperEntries {
		t.Fatalf("filled to %d entries, want %d", wr.Len(), maxWrapperEntries)
	}
	g := Generator{Rand: NewDeterministicReader(7)}
	bumped, err := g.Refresh(last)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wr.Wrap(payload, bumped, nil); err != nil {
		t.Fatal(err)
	}
	if wr.Len() != maxWrapperEntries {
		t.Fatalf("version bump at the cap left %d entries, want %d", wr.Len(), maxWrapperEntries)
	}
}

func TestWrapperConcurrent(t *testing.T) {
	wr := NewWrapper()
	payload := testKey(t, 50, 50)
	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = testKey(t, KeyID(60+i), uint64(60+i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				w, err := wr.Wrap(payload, k, nil)
				if err != nil {
					t.Errorf("wrap: %v", err)
					return
				}
				if _, err := Unwrap(w, k); err != nil {
					t.Errorf("unwrap: %v", err)
					return
				}
				if i%50 == 0 {
					wr.Invalidate(k.ID)
				}
			}
		}(g)
	}
	wg.Wait()
}

// batchJobs is a WrapJobs over plain slices, for the batch tests.
type batchJobs struct {
	payloads, wrappers []Key
	nonces             [][NonceSize]byte
	out                []WrappedKey
}

func (b *batchJobs) Len() int { return len(b.wrappers) }

func (b *batchJobs) Job(i int) (payload, wrapper *Key, nonce *[NonceSize]byte, dst *WrappedKey) {
	return &b.payloads[i], &b.wrappers[i], &b.nonces[i], &b.out[i]
}

// cacheState is the cache's slots and the version each holds.
func cacheState(wr *Wrapper) map[KeyID]Version {
	wr.mu.RLock()
	defer wr.mu.RUnlock()
	s := make(map[KeyID]Version, len(wr.entries))
	for id, e := range wr.entries {
		s[id] = e.key.Version
	}
	return s
}

// fillCache puts n entries under IDs from base up, all of one key material
// so they share one schedule: filling to the cap costs no key expansions.
func fillCache(t *testing.T, wr *Wrapper, base KeyID, n int) {
	t.Helper()
	material := testKey(t, 1, 999)
	aead, err := newGCM(material)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k, err := NewKey(base+KeyID(i), 0, material.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		wr.entries[k.ID] = &wrapperEntry{key: k, aead: aead}
	}
}

// TestWrapBatchMatchesWrapNonce runs WrapBatch with one to four workers
// against serial WrapNonce on a second cache in the same state: every
// wrap must be byte-identical, and the two caches must end up holding the
// same slots at the same versions. The cases are runs of one wrapping key
// longer than a chunk and crossing chunk boundaries, version bumps of
// cached keys (a slot wrapped under its old version and later its new
// one in the same batch, as a tree's old-key and child wraps are), and
// new slots inserted into a cache at its cap. (An old version wrapped
// after the new one is where the two would differ: WrapNonce caches the
// old version again, a batch keeps the newer.)
func TestWrapBatchMatchesWrapNonce(t *testing.T) {
	gen := Generator{Rand: NewDeterministicReader(42)}
	newKey := func(id KeyID) Key {
		k, err := gen.New(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = newKey(KeyID(1000 + i))
	}
	bumped := make([]Key, len(keys))
	for i, k := range keys {
		b, err := gen.Refresh(k)
		if err != nil {
			t.Fatal(err)
		}
		bumped[i] = b
	}

	type batchCase struct {
		name     string
		setup    func(*Wrapper) // the cache both sides start from
		wrappers []Key
		// atCap: eviction drops a random quarter, so the slots that
		// survive it differ between the two caches.
		atCap bool
	}
	var runs, bumps, inserts []Key
	for i, k := range keys[:12] {
		for j := 0; j < 7+9*(i%5); j++ { // runs of 7 to 43 jobs
			runs = append(runs, k)
		}
	}
	for i := range keys[:20] {
		bumps = append(bumps, keys[i], keys[min(i+7, 19)], bumped[i], bumped[i], keys[20+i])
	}
	for i := range keys {
		inserts = append(inserts, keys[i], keys[i], keys[(i*7)%len(keys)])
	}
	warm := func(ks []Key) func(*Wrapper) {
		return func(wr *Wrapper) {
			for _, k := range ks {
				if _, err := wr.aead(k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fresh := func(setup func(*Wrapper)) *Wrapper {
		wr := NewWrapper()
		setup(wr)
		return wr
	}
	cases := []batchCase{
		{name: "runs", setup: warm(keys[:3]), wrappers: runs},
		{name: "version bumps", setup: warm(keys[:20]), wrappers: bumps},
		{name: "inserts at cap", setup: func(wr *Wrapper) {
			fillCache(t, wr, 1<<40, maxWrapperEntries-5)
			warm(keys[:5])(wr)
		}, wrappers: inserts, atCap: true},
	}
	for _, c := range cases {
		payloads := make([]Key, len(c.wrappers))
		nonces := make([][NonceSize]byte, len(c.wrappers))
		rng := NewDeterministicReader(7)
		for i := range payloads {
			payloads[i] = newKey(KeyID(5000 + i))
			if _, err := rng.Read(nonces[i][:]); err != nil {
				t.Fatal(err)
			}
		}
		serial := fresh(c.setup)
		want := make([]WrappedKey, len(c.wrappers))
		for i := range want {
			w, err := serial.WrapNonce(payloads[i], c.wrappers[i], nonces[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		wantCache := cacheState(serial)

		for workers := 1; workers <= 4; workers++ {
			wr := fresh(c.setup)
			jobs := &batchJobs{payloads: payloads, wrappers: c.wrappers, nonces: nonces, out: make([]WrappedKey, len(c.wrappers))}
			if err := wr.WrapBatch(jobs, workers); err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			for i := range want {
				if !bytes.Equal(jobs.out[i].Marshal(), want[i].Marshal()) {
					t.Fatalf("%s, %d workers: wrap %d differs from WrapNonce", c.name, workers, i)
				}
			}
			got := cacheState(wr)
			if !c.atCap {
				if !maps.Equal(got, wantCache) {
					t.Fatalf("%s, %d workers: cache holds %v, WrapNonce's %v", c.name, workers, got, wantCache)
				}
				continue
			}
			// Only the slots the random quarter spares differ: every slot
			// is one the cache held or one of the batch's keys, and every
			// key the cache did not hold is in, as after WrapNonce.
			if n := len(got); n > maxWrapperEntries || n < maxWrapperEntries-maxWrapperEntries/4 {
				t.Fatalf("%s, %d workers: cache holds %d slots", c.name, workers, n)
			}
			before, used := cacheState(fresh(c.setup)), map[KeyID]Version{}
			for _, k := range c.wrappers {
				used[k.ID] = k.Version
			}
			for id, v := range got {
				if bv, ok := before[id]; (!ok || bv != v) && used[id] != v {
					t.Fatalf("%s, %d workers: slot %s at v%d is neither cached before nor wrapped under", c.name, workers, id, v)
				}
			}
			for id, v := range used {
				if _, ok := before[id]; !ok && (got[id] != v || wantCache[id] != v) {
					t.Fatalf("%s, %d workers: new key %s not cached", c.name, workers, id)
				}
			}
		}
	}
}

// TestWrapBatchMergeKeepsNewerVersion: when two workers of one batch built
// the same slot at two versions, the cache ends with the newer one whichever
// worker merges first, and a key the cache already holds is left as it is.
func TestWrapBatchMergeKeepsNewerVersion(t *testing.T) {
	gen := Generator{Rand: NewDeterministicReader(3)}
	old, err := gen.New(77, 0)
	if err != nil {
		t.Fatal(err)
	}
	bumped, err := gen.Refresh(old)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(k Key) *wrapperEntry {
		aead, err := newGCM(k)
		if err != nil {
			t.Fatal(err)
		}
		return &wrapperEntry{key: k, aead: aead}
	}
	newer, older := entry(bumped), entry(old)
	for _, order := range [][]*wrapperEntry{{newer, older}, {older, newer}} {
		wr := NewWrapper()
		held := entry(testKey(t, 9, 9))
		wr.entries[9] = held
		wr.merge([]batchWorker{
			{built: []*wrapperEntry{order[0], entry(testKey(t, 9, 9))}},
			{built: []*wrapperEntry{order[1]}},
		})
		if got := cacheState(wr); got[77] != bumped.Version || len(got) != 2 {
			t.Fatalf("merge order v%d, v%d: cache holds %v, want slot 77 at v%d", order[0].key.Version, order[1].key.Version, got, bumped.Version)
		}
		if wr.entries[9] != held {
			t.Fatal("merge replaced an entry holding the same key")
		}
	}
}

// TestWrapBatchRunsStayWhole: the chunks' moved edges cover every job
// exactly once and never split a run of jobs under one wrapping key, so a
// joiner's path expands its leaf key on one worker only.
func TestWrapBatchRunsStayWhole(t *testing.T) {
	var wrappers []Key
	for r, length := range []int{1, 40, 3, 100, 32, 31, 33, 1, 1, 64, 5} {
		k := testKey(t, KeyID(r%4), uint64(r)) // neighbouring runs differ
		for i := 0; i < length; i++ {
			wrappers = append(wrappers, k)
		}
	}
	n := len(wrappers)
	jobs := &batchJobs{wrappers: wrappers, payloads: make([]Key, n), nonces: make([][NonceSize]byte, n), out: make([]WrappedKey, n)}
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for c := 0; c*wrapChunk < n; c++ {
		lo, hi := runEdges(jobs, c*wrapChunk, min(c*wrapChunk+wrapChunk, n), n)
		for i := lo; i < hi; i++ {
			if owner[i] >= 0 {
				t.Fatalf("job %d made by chunks %d and %d", i, owner[i], c)
			}
			owner[i] = c
		}
	}
	for i := range owner {
		if owner[i] < 0 {
			t.Fatalf("job %d made by no chunk", i)
		}
		if i > 0 && wrappers[i].Equal(wrappers[i-1]) && owner[i] != owner[i-1] {
			t.Fatalf("jobs %d and %d share a wrapping key but chunks %d and %d make them", i-1, i, owner[i-1], owner[i])
		}
	}
}

// TestWrapBatchKeepsHalfTheCap: a batch that builds more schedules than
// keepPerBatch (a bulk load) offers the cache no more than that, for any
// worker count.
func TestWrapBatchKeepsHalfTheCap(t *testing.T) {
	gen := Generator{Rand: NewDeterministicReader(11)}
	n := keepPerBatch + 1000
	jobs := &batchJobs{payloads: make([]Key, n), wrappers: make([]Key, n), nonces: make([][NonceSize]byte, n), out: make([]WrappedKey, n)}
	for i := range jobs.wrappers {
		k, err := gen.New(KeyID(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs.wrappers[i] = k
	}
	for _, workers := range []int{1, 2, 3} {
		wr := NewWrapper()
		if err := wr.WrapBatch(jobs, workers); err != nil {
			t.Fatal(err)
		}
		// One worker keeps exactly keepPerBatch; several keep their
		// shares of it, which the chunks they claimed may not fill.
		if got := wr.Len(); got > keepPerBatch || got == 0 || workers == 1 && got != keepPerBatch {
			t.Fatalf("%d workers: a batch of %d new keys left %d schedules, want at most %d", workers, n, got, keepPerBatch)
		}
	}
}
