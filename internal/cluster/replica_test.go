package cluster

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/metrics"
	"groupkey/internal/store"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
)

// openMemReplica opens a replica on an in-memory filesystem whose WAL
// rolls to a new segment every few records, so snapshots compact it.
func openMemReplica(t *testing.T, dir string, m *Metrics) *Replica {
	t.Helper()
	rep, _, err := OpenReplica(dir, store.Options{FS: vfs.NewMem(nil), SegmentBytes: 256}, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Store.Close() })
	return rep
}

// primaryAt promotes a fresh replica under epoch and journals batches
// one-join batches (seq 1 is the create record), snapshotting after each
// batch listed in snapAt.
func primaryAt(t *testing.T, epoch uint64, batches int, snapAt ...int) *Replica {
	t.Helper()
	rep := openMemReplica(t, "/p", nil)
	if err := rep.Promote(epoch, store.SchemeConfig{Kind: store.SchemeOneTree, Degree: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= batches; i++ {
		b := core.Batch{Joins: []core.Join{{ID: rep.NextID}}}
		rep.NextID++
		if err := rep.Store.JournalBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Scheme.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		for _, at := range snapAt {
			if at == i {
				if err := rep.Store.SaveSnapshot(rep.Scheme, rep.NextID); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return rep
}

// TestReplicaCatchUp is the primary's choice between WAL records and a
// snapshot for every kind of follower hello.
func TestReplicaCatchUp(t *testing.T) {
	cases := []struct {
		name     string
		snapAt   []int // batches after which the primary snapshots
		hello    wire.ReplHello
		wantRecs []uint64 // sequences shipped as records
		wantSnap bool
		wantErr  error
	}{
		{name: "same epoch, follower behind", hello: wire.ReplHello{Epoch: 2, HaveSeq: 3}, wantRecs: []uint64{4, 5, 6}},
		{name: "same epoch, compacted past follower", snapAt: []int{2, 4}, hello: wire.ReplHello{Epoch: 2, HaveSeq: 1}, wantSnap: true},
		{name: "lower follower epoch", hello: wire.ReplHello{Epoch: 1, HaveSeq: 6}, wantSnap: true},
		{name: "fresh follower", hello: wire.ReplHello{}, wantSnap: true},
		{name: "same epoch, follower at primary", hello: wire.ReplHello{Epoch: 2, HaveSeq: 6}},
		{name: "same epoch, follower past primary", hello: wire.ReplHello{Epoch: 2, HaveSeq: 9}},
		{name: "higher follower epoch", hello: wire.ReplHello{Epoch: 3, HaveSeq: 6}, wantErr: ErrFenced},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := primaryAt(t, 2, 5, tc.snapAt...)
			recs, snap, err := p.CatchUp(tc.hello, 2, p.State)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			var seqs []uint64
			for _, r := range recs {
				seqs = append(seqs, r.Seq)
			}
			if !slices.Equal(seqs, tc.wantRecs) {
				t.Fatalf("records %v, want %v", seqs, tc.wantRecs)
			}
			if (snap != nil) != tc.wantSnap {
				t.Fatalf("snapshot shipped = %v, want %v", snap != nil, tc.wantSnap)
			}
			if snap == nil {
				return
			}
			if snap.Epoch != 2 || snap.Seq != 6 || snap.NextID != p.NextID {
				t.Fatalf("snapshot epoch %d seq %d nextID %d", snap.Epoch, snap.Seq, snap.NextID)
			}
			f := openMemReplica(t, "/f", nil)
			if err := f.AcceptSnapshot(*snap); err != nil {
				t.Fatal(err)
			}
			want, _ := p.Scheme.Snapshot()
			got, _ := f.Scheme.Snapshot()
			if !bytes.Equal(got, want) || f.Epoch() != 2 || f.Store.LastSeq() != 6 {
				t.Fatalf("follower after snapshot: epoch %d seq %d, state equal %v", f.Epoch(), f.Store.LastSeq(), bytes.Equal(got, want))
			}
		})
	}
}

// TestReplicaAcceptFenced: records and snapshots from below the durable
// epoch never enter the log and count as fencing rejections; a record
// that skips a sequence is out of order.
func TestReplicaAcceptFenced(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	p := primaryAt(t, 2, 3)
	_, snap, err := p.CatchUp(wire.ReplHello{}, 2, p.State)
	if err != nil {
		t.Fatal(err)
	}
	f := openMemReplica(t, "/f", m)
	if err := f.AcceptSnapshot(*snap); err != nil {
		t.Fatal(err)
	}
	stale := *snap
	stale.Epoch = 1
	rec := func(epoch, seq uint64) wire.ReplRecord {
		return wire.ReplRecord{Epoch: epoch, Kind: store.RecRotate, Seq: seq}
	}
	cases := []struct {
		name   string
		accept func() error
		want   error
		fenced uint64 // fencing rejections counted so far
	}{
		{"record below durable epoch", func() error { return f.AcceptRecord(rec(1, 5)) }, ErrFenced, 1},
		{"snapshot below durable epoch", func() error { return f.AcceptSnapshot(stale) }, ErrFenced, 2},
		{"record out of order", func() error { return f.AcceptRecord(rec(2, 7)) }, store.ErrOutOfOrder, 2},
	}
	for _, tc := range cases {
		if err := tc.accept(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if got := m.fencingRejections.Value(); got != tc.fenced {
			t.Fatalf("%s: groupkey_fencing_rejections_total = %d, want %d", tc.name, got, tc.fenced)
		}
		if f.Store.LastSeq() != 4 || f.Epoch() != 2 {
			t.Fatalf("%s: follower moved to seq %d epoch %d", tc.name, f.Store.LastSeq(), f.Epoch())
		}
	}
}

// TestShardLeaseStepRestartRule: a node whose store already recorded the
// live lease's epoch does not renew it; once it lapses the node promotes
// under a higher epoch.
func TestShardLeaseStepRestartRule(t *testing.T) {
	now := time.Unix(1000, 0)
	auth := NewMemAuthority(func() time.Time { return now })
	if _, err := auth.Acquire(0, "a", time.Minute); err != nil { // an earlier process of a
		t.Fatal(err)
	}
	var hold ShardLease
	if demote, promote, err := hold.Step(auth, 0, "a", time.Minute, 1); demote || promote || err != nil || hold.Owned {
		t.Fatalf("step inside the old lease: demote=%v promote=%v err=%v owned=%v", demote, promote, err, hold.Owned)
	}
	now = now.Add(2 * time.Minute)
	if demote, promote, err := hold.Step(auth, 0, "a", time.Minute, 1); demote || !promote || err != nil || hold.Lease.Epoch != 2 {
		t.Fatalf("step after lapse: demote=%v promote=%v err=%v epoch %d", demote, promote, err, hold.Lease.Epoch)
	}
	if demote, promote, _ := hold.Step(auth, 0, "a", time.Minute, 2); demote || promote || !hold.Owned {
		t.Fatalf("renewal: demote=%v promote=%v owned=%v", demote, promote, hold.Owned)
	}
}
