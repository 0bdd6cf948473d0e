package keycrypt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mustKey(t *testing.T, g *Generator, id KeyID, v Version) Key {
	t.Helper()
	k, err := g.New(id, v)
	if err != nil {
		t.Fatalf("generating key: %v", err)
	}
	return k
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	g := &Generator{Rand: NewDeterministicReader(7)}
	payload := mustKey(t, g, 100, 3)
	wrapper := mustKey(t, g, 200, 9)

	w, err := Wrap(payload, wrapper, g.Rand)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	got, err := Unwrap(w, wrapper)
	if err != nil {
		t.Fatalf("Unwrap: %v", err)
	}
	if !got.Equal(payload) {
		t.Fatalf("round trip mismatch: got %v want %v", got, payload)
	}
}

func TestUnwrapWrongKeyFails(t *testing.T) {
	g := &Generator{Rand: NewDeterministicReader(8)}
	payload := mustKey(t, g, 1, 0)
	wrapper := mustKey(t, g, 2, 0)
	other := mustKey(t, g, 3, 0)

	w, err := Wrap(payload, wrapper, g.Rand)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}

	// Wrong key entirely: rejected by the ID check.
	if _, err := Unwrap(w, other); !errors.Is(err, ErrAuthFailure) {
		t.Fatalf("Unwrap with wrong key: err=%v, want ErrAuthFailure", err)
	}

	// Right ID/version, wrong material: rejected by GCM.
	forged := mustKey(t, g, 2, 0)
	if forged.SameMaterial(wrapper) {
		t.Fatal("test setup: forged key identical to wrapper")
	}
	if _, err := Unwrap(w, forged); !errors.Is(err, ErrAuthFailure) {
		t.Fatalf("Unwrap with forged material: err=%v, want ErrAuthFailure", err)
	}
}

func TestUnwrapStaleVersionFails(t *testing.T) {
	g := &Generator{Rand: NewDeterministicReader(9)}
	payload := mustKey(t, g, 1, 0)
	wrapper := mustKey(t, g, 2, 5)

	w, err := Wrap(payload, wrapper, g.Rand)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	stale := mustKey(t, g, 2, 4)
	if _, err := Unwrap(w, stale); !errors.Is(err, ErrAuthFailure) {
		t.Fatalf("Unwrap with stale version: err=%v, want ErrAuthFailure", err)
	}
}

func TestWrappedMarshalRoundTrip(t *testing.T) {
	g := &Generator{Rand: NewDeterministicReader(10)}
	payload := mustKey(t, g, 11, 1)
	wrapper := mustKey(t, g, 22, 2)
	w, err := Wrap(payload, wrapper, g.Rand)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}

	blob := w.Marshal()
	if len(blob) != WrappedSize {
		t.Fatalf("Marshal length = %d, want %d", len(blob), WrappedSize)
	}
	w2, err := UnmarshalWrapped(blob)
	if err != nil {
		t.Fatalf("UnmarshalWrapped: %v", err)
	}
	if w2 != w {
		t.Fatal("marshal round trip changed the wrapped key")
	}
	got, err := Unwrap(w2, wrapper)
	if err != nil {
		t.Fatalf("Unwrap after round trip: %v", err)
	}
	if !got.Equal(payload) {
		t.Fatal("payload mismatch after marshal round trip")
	}
}

func TestUnmarshalWrappedRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 1, WrappedSize - 1, WrappedSize + 1} {
		if _, err := UnmarshalWrapped(make([]byte, n)); !errors.Is(err, ErrMalformed) {
			t.Errorf("UnmarshalWrapped(%d bytes): err=%v, want ErrMalformed", n, err)
		}
	}
}

func TestUnwrapDetectsTampering(t *testing.T) {
	g := &Generator{Rand: NewDeterministicReader(11)}
	payload := mustKey(t, g, 1, 0)
	wrapper := mustKey(t, g, 2, 0)
	w, err := Wrap(payload, wrapper, g.Rand)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	blob := w.Marshal()
	// Flip one bit in every byte position; unwrap must never succeed with a
	// different result than the original payload.
	for i := range blob {
		mutated := bytes.Clone(blob)
		mutated[i] ^= 0x01
		wm, err := UnmarshalWrapped(mutated)
		if err != nil {
			continue
		}
		got, err := Unwrap(wm, wrapper)
		if err == nil && !got.Equal(payload) {
			t.Fatalf("tampering byte %d yielded a different valid payload", i)
		}
		if err == nil && i >= 8 && i < 24 {
			// Header bytes other than payload ID are authenticated, so any
			// mutation there must fail.
			t.Fatalf("tampering authenticated header byte %d went undetected", i)
		}
	}
}

func TestWrapQuickRoundTripProperty(t *testing.T) {
	f := func(seed uint64, pid, wid uint64, pv, wv uint32) bool {
		g := &Generator{Rand: NewDeterministicReader(seed)}
		payload, err := g.New(KeyID(pid), Version(pv))
		if err != nil {
			return false
		}
		wrapper, err := g.New(KeyID(wid), Version(wv))
		if err != nil {
			return false
		}
		w, err := Wrap(payload, wrapper, g.Rand)
		if err != nil {
			return false
		}
		got, err := Unwrap(w, wrapper)
		return err == nil && got.Equal(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveOneWayAndStable(t *testing.T) {
	parent := Random(1, 0)
	c1 := Derive(parent, "child", 10, 0)
	c2 := Derive(parent, "child", 10, 0)
	if !c1.Equal(c2) {
		t.Fatal("Derive not deterministic")
	}
	c3 := Derive(parent, "other", 10, 0)
	if c1.SameMaterial(c3) {
		t.Fatal("different labels derived identical keys")
	}
	c4 := Derive(parent, "child", 11, 0)
	if c1.SameMaterial(c4) {
		t.Fatal("different IDs derived identical keys")
	}
	if c1.SameMaterial(parent) {
		t.Fatal("derived key equals parent")
	}
}

func TestBlindMixOFTPrimitives(t *testing.T) {
	l := Random(1, 0)
	r := Random(2, 0)
	if Blind(l).SameMaterial(l) {
		t.Fatal("Blind is identity")
	}
	p1 := Mix(3, 0, Blind(l), Blind(r))
	p2 := Mix(3, 0, Blind(l), Blind(r))
	if !p1.Equal(p2) {
		t.Fatal("Mix not deterministic")
	}
	// Order matters (children are positional in the tree).
	p3 := Mix(3, 0, Blind(r), Blind(l))
	if p1.SameMaterial(p3) {
		t.Fatal("Mix ignored child order")
	}
	// A sibling knowing only Blind(l) must not be able to compute l; sanity
	// check that Blind output differs from input (one-wayness is by SHA-256).
	if Mix(3, 0, Blind(l)).SameMaterial(Mix(3, 0, l)) {
		t.Fatal("Mix(Blind(l)) == Mix(l): blinding has no effect")
	}
}

// An Unwrapper agrees with Unwrap item for item across wrapping-key
// switches, version mismatches and tampered blobs, and a failed item does
// not spoil the reused schedule for the items after it.
func TestUnwrapperMatchesUnwrap(t *testing.T) {
	g := Generator{Rand: NewDeterministicReader(3)}
	a, b := mustKey(t, &g, 1, 0), mustKey(t, &g, 2, 0)
	aNext := mustKey(t, &g, 1, 1)
	type step struct {
		w       WrappedKey
		wrapper Key
	}
	var steps []step
	for i, wrapper := range []Key{a, a, b, a, aNext, aNext} {
		w, err := Wrap(mustKey(t, &g, KeyID(10+i), 0), wrapper, g.Rand)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{w, wrapper})
	}
	tampered := steps[1].w
	tampered.ct[0] ^= 1
	steps = append(steps[:2], append([]step{{tampered, a}, {steps[4].w, a}}, steps[2:]...)...)

	var u Unwrapper
	for i, s := range steps {
		want, wantErr := Unwrap(s.w, s.wrapper)
		got, err := u.Unwrap(s.w, s.wrapper)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("step %d: err %v, Unwrap says %v", i, err, wantErr)
		}
		if err == nil && !got.Equal(want) {
			t.Fatalf("step %d: unwrapped %v, Unwrap says %v", i, got, want)
		}
	}
}
