package keycrypt

import (
	"bytes"
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
