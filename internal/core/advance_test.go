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

// reseeded is an entropy source restarted from a seed before each
// operation, the way the store reseeds its stream from each WAL record.
// drawn counts the bytes read since it was made.
type reseeded struct {
	cur   *keycrypt.DeterministicReader
	drawn int
}

func (r *reseeded) Read(p []byte) (int, error) {
	n, err := r.cur.Read(p)
	r.drawn += n
	return n, err
}

func (r *reseeded) reseed(seed uint64) { r.cur = keycrypt.NewDeterministicReader(seed) }

// TestAdvanceMatchesProcessBatch holds Advance to ProcessBatch for every
// scheme the store can build. Two copies of a scheme run on entropy
// reseeded before every operation, as the store's is: one by
// ProcessBatch, one by Advance. After every batch their snapshots must
// match byte for byte, so Advance draws every key ProcessBatch draws, in
// the same order, and counts what it counts; the nonces it leaves to Seal
// are the stream's last draws. Every third rekey and the last, the
// advanced copy seals right after Advance and must then encode exactly
// like the ProcessBatch payload, and a second Seal must draw nothing and
// change nothing. Every ProcessBatch payload must open (checkSealed),
// which fails if a seal writes into an item array the scheme's own
// appends have since copied away from.
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
				var ra, rp reseeded
				reseed := func(seed uint64) { ra.reseed(seed); rp.reseed(seed) }
				build := func(r *reseeded) Scheme {
					opts := []Option{WithRand(r)}
					if planner {
						opts = append(opts, plannerOpt())
					}
					s, err := bl.build(opts...)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				reseed(35)
				advanced, processed := build(&ra), build(&rp)
				migrated := 0
				batches := goldenBatches(35, 300, 30)
				for i, b := range batches {
					reseed(1000 + uint64(i))
					got, err := advanced.Advance(b)
					if err != nil {
						t.Fatalf("batch %d: Advance: %v", i, err)
					}
					if i%sealEvery == 0 || i == len(batches)-1 {
						if err := got.Seal(); err != nil {
							t.Fatalf("batch %d: Seal: %v", i, err)
						}
					}
					want, err := processed.ProcessBatch(b)
					if err != nil {
						t.Fatalf("batch %d: ProcessBatch: %v", i, err)
					}
					checkSealed(t, processed, want)
					if i%sealEvery == 0 || i == len(batches)-1 {
						sealedBytes := encodeRekey(t, got)
						if !bytes.Equal(sealedBytes, encodeRekey(t, want)) {
							t.Errorf("epoch %d: sealed after Advance, the payload differs from ProcessBatch's", got.Epoch)
						}
						drawn := ra.drawn
						if err := got.Seal(); err != nil || ra.drawn != drawn || !bytes.Equal(encodeRekey(t, got), sealedBytes) {
							t.Errorf("epoch %d: a second Seal changed the payload or drew %d B (err %v)", got.Epoch, ra.drawn-drawn, err)
						}
					}
					for _, st := range want.Streams {
						if st.Label == "l-partition" {
							migrated += len(st.JoinerItems)
						}
					}
					if i%8 == 7 { // scheduled rotation between batches
						reseed(2000 + uint64(i))
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
			})
		}
	}
}
