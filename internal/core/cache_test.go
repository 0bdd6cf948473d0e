package core

import (
	"testing"

	"groupkey/internal/keytree"
)

// TestSchemeCachesDropDepartedMembers runs seeded churn through the two
// schemes that wrap under members' individual keys every epoch, Naive and
// QT, and requires their key-schedule caches never to hold more entries
// than there are members with an individual key: a departing (or, in QT,
// migrating) member's entry leaves with it. Every departure wraps under
// every remaining individual key, so a departed member's entry left behind
// shows as one entry too many.
func TestSchemeCachesDropDepartedMembers(t *testing.T) {
	naive, err := NewNaive(rnd(36))
	if err != nil {
		t.Fatal(err)
	}
	qt, err := NewTwoPartition(QT, 2, rnd(36))
	if err != nil {
		t.Fatal(err)
	}
	schemes := []struct {
		s     Scheme
		cache func() int // cached schedules
		keyed func() int // members with an individual key in the scheme
	}{
		{naive, naive.wrapper.Len, naive.Size},
		{qt, qt.queueWrap.Len, qt.SPartitionSize},
	}
	for _, sc := range schemes {
		peak := 0
		for i, b := range goldenBatches(36, 200, 30) {
			if _, err := sc.s.ProcessBatch(b); err != nil {
				t.Fatalf("%s batch %d: %v", sc.s.Name(), i, err)
			}
			if got, want := sc.cache(), sc.keyed(); got > want {
				t.Fatalf("%s batch %d: cache holds %d schedules for %d keyed members", sc.s.Name(), i, got, want)
			}
			peak = max(peak, sc.cache())
		}
		if peak == 0 {
			t.Fatalf("%s: the cache never held a schedule", sc.s.Name())
		}
		if _, err := sc.s.ProcessBatch(Batch{Leaves: sc.s.Members()}); err != nil {
			t.Fatal(err)
		}
		if got := sc.cache(); got != 0 {
			t.Fatalf("%s: empty group keeps %d schedules", sc.s.Name(), got)
		}
	}
}

// TestRekeyAllItemsAllocs: flattening a rekey's streams sizes the result
// once instead of growing it by append.
func TestRekeyAllItemsAllocs(t *testing.T) {
	r := &Rekey{Streams: []Stream{
		{Items: make([]keytree.Item, 300), JoinerItems: make([]keytree.Item, 40)},
		{Items: make([]keytree.Item, 200), JoinerItems: make([]keytree.Item, 70)},
		{Items: make([]keytree.Item, 1)},
	}}
	if n := len(r.AllItems()); n != r.TotalKeyCount() {
		t.Fatalf("AllItems returned %d items, want %d", n, r.TotalKeyCount())
	}
	if got := testing.AllocsPerRun(20, func() { _ = r.AllItems() }); got > 1 {
		t.Errorf("AllItems allocates %.1f objects/op, want 1", got)
	}
}
