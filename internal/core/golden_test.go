package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math/rand"
	"os"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Golden payload digests at the scheme level: the SHA-256 of every stream a
// seeded batch sequence produces — label, Items then JoinerItems, each with
// Kind, Level, wrapped bytes and receivers — for every tree-backed scheme
// with the placement planner off and on. internal/keytree holds the same
// oracle one layer down; together they are what any rewrite of the tree's
// internals must leave byte-identical. A path-addressed item's receivers
// are the list receiverOracle derives.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_payloads.json from the current implementation")

const goldenFile = "testdata/golden_payloads.json"

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashItems(h hash.Hash, items []keytree.Item, receivers [][]keytree.MemberID) {
	hashU64(h, uint64(len(items)))
	for i, it := range items {
		hashU64(h, uint64(it.Kind))
		hashU64(h, uint64(it.Level))
		h.Write(it.Wrapped.Marshal())
		hashU64(h, uint64(len(receivers[i])))
		for _, m := range receivers[i] {
			hashU64(h, uint64(m))
		}
	}
}

// hashRekey folds r into h; s is the scheme right after producing it.
func hashRekey(h hash.Hash, s Scheme, r *Rekey) {
	lists := receiverOracle(s, r.AllItems())
	multicast, joiner := lists[:r.MulticastKeyCount()], lists[r.MulticastKeyCount():]
	hashU64(h, r.Epoch)
	hashU64(h, uint64(len(r.Streams)))
	for _, st := range r.Streams {
		hashU64(h, uint64(len(st.Label)))
		h.Write([]byte(st.Label))
		hashItems(h, st.Items, multicast[:len(st.Items)])
		hashItems(h, st.JoinerItems, joiner[:len(st.JoinerItems)])
		multicast, joiner = multicast[len(st.Items):], joiner[len(st.JoinerItems):]
	}
}

// receiverOracle lists, by brute force over every member's keys, whom each
// of one rekey's items (Rekey.AllItems) reaches: an explicit item its
// Receivers, a path-addressed one the members holding its wrapping key,
// minus those an explicit item hands the same payload key. It shares no
// code with wire.ScopedIndex, which applies the same rule per connected
// member.
func receiverOracle(s Scheme, items []keytree.Item) [][]keytree.MemberID {
	holders := make(map[keycrypt.KeyID][]keytree.MemberID)
	for _, m := range s.Members() {
		keys, err := s.MemberKeys(m)
		if err != nil {
			panic(err)
		}
		for _, k := range keys {
			holders[k.ID] = append(holders[k.ID], m)
		}
	}
	type delivery struct {
		m   keytree.MemberID
		key keycrypt.KeyID
	}
	named := make(map[delivery]bool)
	for _, it := range items {
		for _, m := range it.Receivers {
			named[delivery{m, it.Wrapped.PayloadID}] = true
		}
	}
	lists := make([][]keytree.MemberID, len(items))
	for i, it := range items {
		if len(it.Receivers) > 0 {
			lists[i] = it.Receivers
			continue
		}
		for _, m := range holders[it.Wrapped.WrapperID] {
			if !named[delivery{m, it.Wrapped.PayloadID}] {
				lists[i] = append(lists[i], m)
			}
		}
	}
	return lists
}

// goldenBatches is a seeded two-class churn schedule: replacements, net
// growth, net shrinkage, a mass exodus, a flash join, and an empty batch
// (which still migrates S-partition survivors). Joiners carry a loss rate
// and a lifetime class so every scheme's routing is exercised.
func goldenBatches(seed int64, initial, rounds int) []Batch {
	rnd := rand.New(rand.NewSource(seed))
	next := keytree.MemberID(1)
	var present []keytree.MemberID
	join := func(b *Batch, n int) {
		for i := 0; i < n; i++ {
			meta := MemberMeta{LossRate: []float64{-1, 0.005, 0.05, 0.3}[rnd.Intn(4)], LongLived: rnd.Intn(3) == 0}
			b.Joins = append(b.Joins, Join{ID: next, Meta: meta})
			next++
		}
	}
	leave := func(b *Batch, n int) {
		n = min(n, len(present))
		rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		b.Leaves = append(b.Leaves, present[:n]...)
		present = present[n:]
	}

	var batches []Batch
	for r := -1; r < rounds; r++ {
		var b Batch
		switch {
		case r < 0:
			join(&b, initial)
		case r%6 == 0: // replacement, J == L
			leave(&b, 1+rnd.Intn(12))
			join(&b, len(b.Leaves))
		case r%6 == 1: // net growth, sometimes join-only
			leave(&b, rnd.Intn(7))
			join(&b, len(b.Leaves)+1+rnd.Intn(10))
		case r%6 == 2: // net shrinkage, sometimes leave-only
			leave(&b, 5+rnd.Intn(12))
			join(&b, rnd.Intn(5)*len(b.Leaves)/16)
		case r%6 == 3: // mass exodus
			leave(&b, len(present)/3)
			join(&b, rnd.Intn(3))
		case r%6 == 4: // flash join
			leave(&b, rnd.Intn(2))
			join(&b, len(present)/2+1)
		default: // empty batch
		}
		for _, j := range b.Joins {
			present = append(present, j.ID)
		}
		batches = append(batches, b)
	}
	return batches
}

func TestGoldenPayloadDigests(t *testing.T) {
	builders := []struct {
		name  string
		build func(opts ...Option) (Scheme, error)
	}{
		{"onetree", func(o ...Option) (Scheme, error) { return NewOneTree(o...) }},
		{"qt", func(o ...Option) (Scheme, error) { return NewTwoPartition(QT, 3, o...) }},
		{"tt", func(o ...Option) (Scheme, error) { return NewTwoPartition(TT, 3, o...) }},
		{"pt", func(o ...Option) (Scheme, error) { return NewTwoPartition(PT, 3, o...) }},
		{"loss-homogenized", func(o ...Option) (Scheme, error) {
			return NewLossHomogenized([]float64{0.01, 0.1}, o...)
		}},
	}
	got := map[string]string{}
	for _, bl := range builders {
		for _, planner := range []bool{false, true} {
			name := bl.name + "/planner=off"
			opts := []Option{rnd(11)}
			if planner {
				name = bl.name + "/planner=on"
				opts = append(opts, plannerOpt())
			}
			s, err := bl.build(opts...)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i, b := range goldenBatches(11, 1500, 48) {
				r, err := s.ProcessBatch(b)
				if err != nil {
					t.Fatalf("%s: batch %d: %v", name, i, err)
				}
				hashRekey(h, s, r)
				if i%8 == 7 { // scheduled rotation between batches
					r, err := s.(Rotator).Rotate()
					if err != nil {
						t.Fatalf("%s: rotate after batch %d: %v", name, i, err)
					}
					hashRekey(h, s, r)
				}
			}
			if planner && s.Stats().Planner.PlannedBatches == 0 {
				t.Errorf("%s: no batch took a planned placement", name)
			}
			got[name] = hex.EncodeToString(h.Sum(nil))
		}
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d digests, test computes %d", len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: payload digest %s, golden %s", name, d, want[name])
		}
	}
}
