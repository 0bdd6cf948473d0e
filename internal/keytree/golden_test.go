package keytree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"slices"
	"testing"

	"groupkey/internal/keycrypt"
)

// Golden payload digests: the byte-level oracle every rewrite of the tree's
// internals is held to. Each digest is the SHA-256 of every payload a
// seeded batch sequence produces — Items then JoinerItems, each with Kind,
// Level, wrapped bytes and receivers — so a change that moves one receiver,
// one nonce draw or one item's position fails here by name. A
// path-addressed item's receivers are the list receiverOracle derives.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_payloads.json from the current implementation")

const goldenFile = "testdata/golden_payloads.json"

// hashItems folds one item list and its receiver lists into h,
// length-prefixed so that moving an item between Items and JoinerItems
// changes the digest.
func hashItems(h hash.Hash, items []Item, receivers [][]MemberID) {
	var b [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(len(items)))
	for i, it := range items {
		u64(uint64(it.Kind))
		u64(uint64(it.Level))
		h.Write(it.Wrapped.Marshal())
		u64(uint64(len(receivers[i])))
		for _, m := range receivers[i] {
			u64(uint64(m))
		}
	}
}

// receiverOracle lists, by brute force over every member's path, whom each
// of one payload's items reaches: an explicit item its Receivers, a
// path-addressed one the members whose path holds its wrapping key, minus
// those an explicit item hands the same payload key. It shares no code with
// wire.ScopedIndex, which applies the same rule per connected member.
func receiverOracle(tr *Tree, items []Item) [][]MemberID {
	holders := make(map[keycrypt.KeyID][]MemberID)
	for _, m := range tr.Members() {
		for n := tr.leaves[m]; n != nil; n = n.parent {
			holders[n.key.ID] = append(holders[n.key.ID], m)
		}
	}
	type delivery struct {
		m   MemberID
		key keycrypt.KeyID
	}
	named := make(map[delivery]bool)
	for _, it := range items {
		for _, m := range it.Receivers {
			named[delivery{m, it.Wrapped.PayloadID}] = true
		}
	}
	lists := make([][]MemberID, len(items))
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

// walk visits every node in the subtree rooted at n in pre-order.
func walk(n *Node, visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.children {
		walk(c, visit)
	}
}

// membersBelow lists the members in n's subtree, ascending.
func membersBelow(n *Node) []MemberID {
	var out []MemberID
	walk(n, func(x *Node) {
		if x.member != 0 {
			out = append(out, x.member)
		}
	})
	slices.Sort(out)
	return out
}

// goldenBatches is a seeded churn schedule that cycles through every
// structural regime of Rekey: replacements (fills only), net growth from a
// full tree (leaf splits; planner anchors when departures ride along), net
// shrinkage (removals with splices; planner anchors under the survivors), a
// mass exodus (cascaded splices) and a flash join.
func goldenBatches(seed int64, initial, rounds int) []Batch {
	rnd := rand.New(rand.NewSource(seed))
	next := MemberID(1)
	var present []MemberID
	join := func(b *Batch, n int) {
		for i := 0; i < n; i++ {
			b.Joins = append(b.Joins, next)
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
		case r%5 == 0: // replacement, J == L
			n := 1 + rnd.Intn(12)
			leave(&b, n)
			join(&b, len(b.Leaves))
		case r%5 == 1: // net growth, sometimes join-only
			leave(&b, rnd.Intn(7))
			join(&b, len(b.Leaves)+1+rnd.Intn(10))
		case r%5 == 2: // net shrinkage, sometimes leave-only
			leave(&b, 5+rnd.Intn(12))
			join(&b, rnd.Intn(5)*len(b.Leaves)/16)
		case r%5 == 3: // mass exodus
			leave(&b, len(present)/3)
			join(&b, rnd.Intn(3))
		default: // flash join
			leave(&b, rnd.Intn(2))
			join(&b, len(present)/2+1)
		}
		present = append(present, b.Joins...)
		batches = append(batches, b)
	}
	return batches
}

func TestGoldenPayloadDigests(t *testing.T) {
	got := map[string]string{}
	// Full trees of four levels, plus one six levels deep.
	for _, tc := range []struct{ degree, initial int }{{2, 16}, {3, 81}, {4, 256}, {4, 4096}} {
		degree := tc.degree
		for _, planner := range []bool{false, true} {
			for _, seed := range []int64{1, 2} {
				name := fmt.Sprintf("d=%d/n=%d/planner=%v/seed=%d", degree, tc.initial, planner, seed)
				opts := []Option{WithRand(keycrypt.NewDeterministicReader(uint64(seed)))}
				if planner {
					opts = append(opts, WithPlanner(PlannerConfig{}))
				}
				tr, err := New(degree, opts...)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				// Coverage of the sequence itself, so a generator edit that
				// stops exercising a path cannot silently weaken the oracle.
				var fills, splices, splits, anchored int
				for i, b := range goldenBatches(seed, tc.initial, 40) {
					plan, err := tr.PlanBatch(b)
					if err != nil {
						t.Fatalf("%s: batch %d: %v", name, i, err)
					}
					for _, m := range plan.Removals {
						if p := tr.leaves[m].parent; p != nil && len(p.children) == 2 {
							splices++
						}
					}
					firstNew := tr.nextID
					p, err := tr.Rekey(b)
					if err != nil {
						t.Fatalf("%s: batch %d: %v", name, i, err)
					}
					fills += len(p.Placement.Fills)
					for j, g := range p.Placement.Grown {
						if plan.Grows[j].Anchor != 0 {
							anchored++
						} else if g.Anchor >= firstNew {
							splits++
						}
					}
					lists := receiverOracle(tr, p.AllItems())
					hashItems(h, p.Items, lists[:len(p.Items)])
					hashItems(h, p.JoinerItems, lists[len(p.Items):])
				}
				// A binary tree has no underfull interior to anchor under.
				wantAnchors := planner && degree > 2
				if fills == 0 || splices == 0 || splits == 0 || (wantAnchors && anchored == 0) {
					t.Errorf("%s: sequence misses a path: fills=%d splices=%d splits=%d anchored=%d",
						name, fills, splices, splits, anchored)
				}
				got[name] = hex.EncodeToString(h.Sum(nil))
			}
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
