package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// encodeRekey is a rekey's bytes as a member could see them: the epoch,
// then per stream its label, its items in wire encoding and each item's
// explicit receivers.
func encodeRekey(t *testing.T, r *Rekey) []byte {
	t.Helper()
	out := binary.BigEndian.AppendUint64(nil, r.Epoch)
	for _, st := range r.Streams {
		out = append(append(out, st.Label...), 0)
		for _, items := range [][]keytree.Item{st.Items, st.JoinerItems} {
			out = binary.BigEndian.AppendUint32(out, uint32(len(items)))
			for _, it := range items {
				var err error
				if out, err = wire.AppendRekeyItem(out, it); err != nil {
					t.Fatal(err)
				}
				for _, m := range it.Receivers {
					out = binary.BigEndian.AppendUint64(out, uint64(m))
				}
			}
		}
	}
	return out
}

// checkSealed fails unless every item of r, just produced by s, carries a
// wrap (a zero one is a slot no seal reached) and every item wrapped under
// a key a member of s still holds opens to the key it names.
func checkSealed(t *testing.T, s Scheme, r *Rekey) {
	t.Helper()
	held := make(map[keycrypt.KeyID]keycrypt.Key)
	for _, m := range s.Members() {
		keys, err := s.MemberKeys(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			held[k.ID] = k
		}
	}
	for i, it := range r.AllItems() {
		if it.Wrapped == (keycrypt.WrappedKey{}) {
			t.Fatalf("epoch %d: item %d was never sealed", r.Epoch, i)
		}
		w, ok := held[it.Wrapped.WrapperID]
		if !ok || w.Version != it.Wrapped.WrapperVersion {
			continue // under an old version or a departed member's key
		}
		got, err := keycrypt.Unwrap(it.Wrapped, w)
		if err != nil || !got.Equal(held[it.Wrapped.PayloadID]) {
			t.Fatalf("epoch %d: item %d does not open to key %s (err %v)", r.Epoch, i, it.Wrapped.PayloadID, err)
		}
	}
}

// TestAdvanceMatchesProcessBatch holds Advance to ProcessBatch for every
// scheme the store can build. Two copies of a scheme run on the same
// deterministic entropy: one by ProcessBatch, one by Advance. After every
// batch their snapshots must match byte for byte, so Advance draws every
// key and nonce ProcessBatch draws and counts what it counts. The advanced
// copy seals only every third rekey and the last, and only at the end,
// after the scheme (and its trees' key-schedule caches) moved on: each
// must then encode exactly like the ProcessBatch payload of its epoch,
// and every ProcessBatch payload must open (checkSealed), which fails if a
// seal writes into an item array the scheme's own appends have since
// copied away from. Some of those late wraps must be under keys a later
// batch retired, whose schedules the trees' caches dropped with them: the
// seal rebuilds them from the keys its jobs hold.
func TestAdvanceMatchesProcessBatch(t *testing.T) {
	builders := []struct {
		name  string
		build func(opts ...Option) (Scheme, error)
	}{
		{"onetree", func(o ...Option) (Scheme, error) { return NewOneTree(o...) }},
		{"naive", func(o ...Option) (Scheme, error) { return NewNaive(o...) }},
		{"qt", func(o ...Option) (Scheme, error) { return NewTwoPartition(QT, 2, o...) }},
		{"tt", func(o ...Option) (Scheme, error) { return NewTwoPartition(TT, 2, o...) }},
		{"pt", func(o ...Option) (Scheme, error) { return NewTwoPartition(PT, 2, o...) }},
		{"loss-homogenized", func(o ...Option) (Scheme, error) {
			return NewLossHomogenized([]float64{0.01, 0.1}, o...)
		}},
		{"random-multitree", func(o ...Option) (Scheme, error) { return NewRandomMultiTree(3, o...) }},
	}
	const sealEvery = 3
	for _, bl := range builders {
		for _, planner := range []bool{false, true} {
			if planner && bl.name == "naive" {
				continue // no key tree to plan for
			}
			name := bl.name + "/planner=off"
			if planner {
				name = bl.name + "/planner=on"
			}
			t.Run(name, func(t *testing.T) {
				build := func() Scheme {
					opts := []Option{rnd(35)}
					if planner {
						opts = append(opts, plannerOpt())
					}
					s, err := bl.build(opts...)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				advanced, processed := build(), build()
				type held struct {
					r    *Rekey
					want []byte
				}
				var late []held
				migrated := 0
				batches := goldenBatches(35, 300, 30)
				for i, b := range batches {
					got, err := advanced.Advance(b)
					if err != nil {
						t.Fatalf("batch %d: Advance: %v", i, err)
					}
					want, err := processed.ProcessBatch(b)
					if err != nil {
						t.Fatalf("batch %d: ProcessBatch: %v", i, err)
					}
					checkSealed(t, processed, want)
					if i%sealEvery == 0 || i == len(batches)-1 {
						late = append(late, held{got, encodeRekey(t, want)})
					}
					for _, st := range want.Streams {
						if st.Label == "l-partition" {
							migrated += len(st.JoinerItems)
						}
					}
					if i%8 == 7 { // scheduled rotation between batches
						ra, err := advanced.(Rotator).Rotate()
						if err != nil {
							t.Fatalf("rotate after batch %d: %v", i, err)
						}
						rp, err := processed.(Rotator).Rotate()
						if err != nil {
							t.Fatalf("rotate after batch %d: %v", i, err)
						}
						if !bytes.Equal(encodeRekey(t, ra), encodeRekey(t, rp)) {
							t.Fatalf("rotation after batch %d differs", i)
						}
					}
					sa, err := advanced.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					sp, err := processed.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sa, sp) {
						t.Fatalf("batch %d: advanced and processed snapshots differ", i)
					}
				}
				if (bl.name == "qt" || bl.name == "tt") && migrated == 0 {
					t.Fatal("no S-to-L migration ran")
				}
				live := make(map[keycrypt.KeyID]bool)
				for _, m := range advanced.Members() {
					for _, id := range advanced.PathIDs(m, nil) {
						live[id] = true
					}
				}
				retired := 0
				for _, h := range late {
					items := h.r.AllItems()
					if err := h.r.Seal(); err != nil {
						t.Fatalf("epoch %d: Seal: %v", h.r.Epoch, err)
					}
					for i, it := range h.r.AllItems() {
						if items[i].Wrapped == (keycrypt.WrappedKey{}) && !live[it.Wrapped.WrapperID] {
							retired++ // sealed late under a key retired since
						}
					}
					if !bytes.Equal(encodeRekey(t, h.r), h.want) {
						t.Errorf("epoch %d: sealed late, the payload differs from ProcessBatch's", h.r.Epoch)
					}
					if err := h.r.Seal(); err != nil || !bytes.Equal(encodeRekey(t, h.r), h.want) {
						t.Errorf("epoch %d: a second Seal changed the payload (err %v)", h.r.Epoch, err)
					}
				}
				if bl.name != "naive" && retired == 0 {
					t.Fatal("no late seal wrapped under a retired key")
				}
			})
		}
	}
}
