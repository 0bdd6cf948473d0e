package store

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/vfs"
)

// replicate streams every primary record with sequence > after into the
// follower, returning the follower's scheme.
func replicate(t *testing.T, primary, follower *Store, sc core.Scheme, after uint64) core.Scheme {
	t.Helper()
	recs, ok, err := primary.RecordsFrom(after)
	if err != nil || !ok {
		t.Fatalf("RecordsFrom(%d): ok=%v err=%v", after, ok, err)
	}
	for _, r := range recs {
		next, _, _, err := follower.ReplicaApply(sc, r)
		if err != nil {
			t.Fatalf("ReplicaApply seq %d: %v", r.Seq, err)
		}
		sc = next
	}
	return sc
}

// TestReplicaByteIdentical is the replication core invariant: a follower
// that applies the primary's record stream — same kinds, same seeds, same
// payloads — holds byte-identical scheme state at every step.
func TestReplicaByteIdentical(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := openStore(t, pdir, Options{Fsync: FsyncNever})
	defer primary.Close()
	if _, err := primary.Recover(); err != nil {
		t.Fatal(err)
	}
	sc, states, _ := referenceRun(t, primary, SchemeConfig{Kind: SchemeOneTree, Degree: 4}, 8, 17)

	follower := openStore(t, fdir, Options{Fsync: FsyncNever})
	defer follower.Close()
	if _, err := follower.Recover(); err != nil {
		t.Fatal(err)
	}
	fsc := replicate(t, primary, follower, nil, 0)
	if fsc == nil {
		t.Fatal("follower never built a scheme")
	}
	if !bytes.Equal(snap(t, fsc), states[len(states)-1]) {
		t.Fatal("replica state diverged from primary")
	}
	fk, err := fsc.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := sc.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fk.Bytes(), pk.Bytes()) {
		t.Fatal("replica derived a different group key")
	}

	// The replica's own WAL must now recover to the same state — a promoted
	// follower that restarts is still byte-identical.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, fdir, Options{Fsync: FsyncNever})
	defer re.Close()
	res, err := re.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme == nil || !bytes.Equal(snap(t, res.Scheme), states[len(states)-1]) {
		t.Fatal("recovered replica diverged")
	}
}

// TestReplicaApplyRekeyRefusesSeal: a follower only advances each record,
// and ReplicaApply closes the record's entropy stream when it returns, so
// the rekey it hands back cannot be sealed: its wraps would draw nonces
// from no record's stream. The follower still holds the primary's state.
func TestReplicaApplyRekeyRefusesSeal(t *testing.T) {
	primary := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer primary.Close()
	follower := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer follower.Close()
	for _, st := range []*Store{primary, follower} {
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := primary.Create(SchemeConfig{Kind: SchemeTT, SPeriodK: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	next := keytree.MemberID(1)
	for i := 0; i < 10; i++ {
		var b core.Batch
		members := sc.Members()
		for _, k := range rng.Perm(len(members))[:min(len(members), rng.Intn(4))] {
			b.Leaves = append(b.Leaves, members[k])
		}
		for j := rng.Intn(6); j >= 0; j-- {
			b.Joins = append(b.Joins, core.Join{ID: next})
			next++
		}
		journalAndApply(t, primary, sc, b)
	}

	recs, ok, err := primary.RecordsFrom(0)
	if err != nil || !ok {
		t.Fatalf("RecordsFrom: ok=%v err=%v", ok, err)
	}
	var fsc core.Scheme
	refused := 0
	for _, r := range recs {
		var rk *core.Rekey
		if fsc, rk, _, err = follower.ReplicaApply(fsc, r); err != nil {
			t.Fatal(err)
		}
		if rk == nil {
			continue
		}
		// A refused draw leaves the wraps pending, so a retry is refused too
		// instead of handing back unsealed items.
		for try := 1; try <= 2; try++ {
			if err := rk.Seal(); !errors.Is(err, errOutsideJournal) {
				t.Fatalf("seq %d: seal %d of a replica's rekey: err=%v, want %v", r.Seq, try, err, errOutsideJournal)
			}
		}
		refused++
	}
	if refused != 10 {
		t.Fatalf("%d of 10 replica rekeys refused their seal", refused)
	}
	if !bytes.Equal(snap(t, fsc), snap(t, sc)) {
		t.Fatal("follower diverged from the primary")
	}
}

func TestReplicaApplyOutOfOrder(t *testing.T) {
	primary := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer primary.Close()
	if _, err := primary.Recover(); err != nil {
		t.Fatal(err)
	}
	referenceRun(t, primary, SchemeConfig{Kind: SchemeOneTree, Degree: 4}, 4, 3)
	recs, ok, err := primary.RecordsFrom(0)
	if err != nil || !ok || len(recs) < 3 {
		t.Fatalf("RecordsFrom: %d recs, ok=%v, err=%v", len(recs), ok, err)
	}

	follower := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer follower.Close()
	if _, err := follower.Recover(); err != nil {
		t.Fatal(err)
	}
	sc, _, _, err := follower.ReplicaApply(nil, recs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Skipping a record must be rejected, not silently applied.
	if _, _, _, err := follower.ReplicaApply(sc, recs[2]); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("gap accepted: %v", err)
	}
	// Replaying the same record twice likewise.
	if _, _, _, err := follower.ReplicaApply(sc, recs[0]); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("duplicate accepted: %v", err)
	}
}

// TestSubscribeStreamsLiveRecords pins the subscription contract: records
// journaled after Subscribe arrive in order on the channel, and a
// subscriber that lags past its buffer is cut off with Lost(), not stalled.
func TestSubscribeStreamsLiveRecords(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	sub := st.Subscribe(64)
	defer st.Unsubscribe(sub)
	sc, _, _ := referenceRun(t, st, SchemeConfig{Kind: SchemeOneTree, Degree: 4}, 5, 9)
	last := st.LastSeq()
	for want := uint64(1); want <= last; want++ {
		r, ok := <-sub.C()
		if !ok {
			t.Fatalf("subscription closed at seq %d", want)
		}
		if r.Seq != want {
			t.Fatalf("got seq %d, want %d", r.Seq, want)
		}
	}

	lagger := st.Subscribe(1)
	journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: 100}}})
	journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: 101}}})
	// Buffer of one, two records, zero reads: the second journal must have
	// cut the lagger off rather than block.
	<-lagger.C()
	if _, ok := <-lagger.C(); ok {
		t.Fatal("lagging subscriber still open")
	}
	if !lagger.Lost() {
		t.Fatal("cut-off subscriber not marked lost")
	}
	st.Unsubscribe(lagger) // double-release must be safe
}

// TestRecordsFromCompaction: once a snapshot compacts the early log, a
// catch-up from before the compaction point must report !ok (snapshot
// fallback) rather than silently returning a gapped stream.
func TestRecordsFromCompaction(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Fsync: FsyncNever, SegmentBytes: 256})
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	sc, _, nextID := referenceRun(t, st, SchemeConfig{Kind: SchemeOneTree, Degree: 4}, 10, 23)
	if err := st.SaveSnapshot(sc, nextID); err != nil {
		t.Fatal(err)
	}
	// Force appends past the snapshot so compaction has something to keep.
	journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: nextID}}})
	if err := st.SaveSnapshot(sc, nextID+1); err != nil {
		t.Fatal(err)
	}
	journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: nextID + 1}}})

	if _, ok, err := st.RecordsFrom(0); err != nil || ok {
		t.Fatalf("compacted catch-up reported ok=%v err=%v, want snapshot fallback", ok, err)
	}
	recs, ok, err := st.RecordsFrom(st.LastSeq() - 1)
	if err != nil || !ok || len(recs) != 1 || recs[0].Seq != st.LastSeq() {
		t.Fatalf("tail catch-up: %d recs ok=%v err=%v", len(recs), ok, err)
	}
	if _, ok, err := st.RecordsFrom(st.LastSeq()); err != nil || !ok {
		t.Fatalf("up-to-date catch-up: ok=%v err=%v", ok, err)
	}
}

// TestInstallSnapshot ships a primary snapshot into a follower that holds
// divergent state, and checks the divergent WAL suffix is really gone: the
// reopened store recovers to the installed state, not a hybrid.
func TestInstallSnapshot(t *testing.T) {
	primary := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer primary.Close()
	if _, err := primary.Recover(); err != nil {
		t.Fatal(err)
	}
	sc, _, nextID := referenceRun(t, primary, SchemeConfig{Kind: SchemeOneTree, Degree: 4}, 6, 31)
	blob := snap(t, sc)
	seq := primary.LastSeq()

	fdir := t.TempDir()
	follower := openStore(t, fdir, Options{Fsync: FsyncNever})
	if _, err := follower.Recover(); err != nil {
		t.Fatal(err)
	}
	// Divergent history: its own create + batches (different seeds).
	referenceRun(t, follower, SchemeConfig{Kind: SchemeOneTree, Degree: 2}, 3, 99)

	fsc, err := follower.InstallSnapshot(seq, nextID, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap(t, fsc), blob) {
		t.Fatal("installed scheme diverged from shipped blob")
	}
	if follower.LastSeq() != seq {
		t.Fatalf("follower seq %d, want %d", follower.LastSeq(), seq)
	}
	if segs, _ := segments(fdir); len(segs) != 0 {
		t.Fatalf("divergent WAL survived install: %v", segs)
	}

	// Streamed continuation applies on top of the installed snapshot.
	journalAndApply(t, primary, sc, core.Batch{Joins: []core.Join{{ID: nextID}}})
	fsc = replicate(t, primary, follower, fsc, seq)
	if !bytes.Equal(snap(t, fsc), snap(t, sc)) {
		t.Fatal("post-install stream diverged")
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, fdir, Options{Fsync: FsyncNever})
	defer re.Close()
	res, err := re.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme == nil || !bytes.Equal(snap(t, res.Scheme), snap(t, sc)) {
		t.Fatal("reopened follower diverged from installed state")
	}
	if res.NextID != nextID+1 {
		t.Fatalf("recovered NextID %d, want %d", res.NextID, nextID+1)
	}
}

// TestInstallSnapshotKeepsPlanner: a fresh follower that installs a
// planner-enabled primary's snapshot — never having seen the create
// record — runs the planner too, so the two stay byte-identical through
// a stream of mixed join/leave batches and across a follower restart.
func TestInstallSnapshotKeepsPlanner(t *testing.T) {
	for _, cfg := range []SchemeConfig{
		{Kind: SchemeOneTree, Degree: 4, Planner: true},
		{Kind: SchemeTT, Degree: 4, SPeriodK: 2, Planner: true},
	} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			primary := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
			defer primary.Close()
			if _, err := primary.Recover(); err != nil {
				t.Fatal(err)
			}
			sc, _, nextID := referenceRun(t, primary, cfg, 8, 41)
			seq := primary.LastSeq()

			fdir := t.TempDir()
			follower := openStore(t, fdir, Options{Fsync: FsyncNever})
			if _, err := follower.Recover(); err != nil {
				t.Fatal(err)
			}
			fsc, err := follower.InstallSnapshot(seq, nextID, snap(t, sc))
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(43))
			members := sc.Members()
			for i := 0; i < 40; i++ {
				var b core.Batch
				for j := rng.Intn(6); j > 0; j-- {
					b.Joins = append(b.Joins, core.Join{ID: nextID, Meta: core.MemberMeta{LossRate: -1}})
					nextID++
				}
				for j := rng.Intn(6); j > 0 && len(members) > 2; j-- {
					k := rng.Intn(len(members))
					b.Leaves = append(b.Leaves, members[k])
					members = append(members[:k], members[k+1:]...)
				}
				for _, j := range b.Joins {
					members = append(members, j.ID)
				}
				journalAndApply(t, primary, sc, b)
				fsc = replicate(t, primary, follower, fsc, seq)
				seq = primary.LastSeq()
				if !bytes.Equal(snap(t, fsc), snap(t, sc)) {
					t.Fatalf("follower diverged from the primary at streamed batch %d", i)
				}
			}
			if err := follower.Close(); err != nil {
				t.Fatal(err)
			}
			re := openStore(t, fdir, Options{Fsync: FsyncNever})
			defer re.Close()
			res, err := re.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if res.Scheme == nil || !bytes.Equal(snap(t, res.Scheme), snap(t, sc)) {
				t.Fatal("reopened follower diverged from the primary")
			}
		})
	}
}

func TestAdoptSigningKey(t *testing.T) {
	dir := t.TempDir()
	primary := openStore(t, t.TempDir(), Options{})
	follower := openStore(t, dir, Options{})
	seed := primary.SigningSeed()
	if bytes.Equal(follower.SigningSeed(), seed) {
		t.Fatal("fresh stores share a signing key")
	}
	if err := follower.AdoptSigningKey(seed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(follower.SigningSeed(), seed) {
		t.Fatal("adoption did not take")
	}
	if err := follower.AdoptSigningKey(seed); err != nil {
		t.Fatal(err) // idempotent
	}
	follower.Close()
	primary.Close()
	// The adopted key must be the one a reopened store loads.
	re := openStore(t, dir, Options{})
	defer re.Close()
	if !bytes.Equal(re.SigningSeed(), seed) {
		t.Fatal("adopted key did not persist")
	}
	if err := re.AdoptSigningKey(seed[:5]); err == nil {
		t.Fatal("short seed accepted")
	}
}

// TestListGroupDirsUnreadable: an unreadable group namespace must fail the
// listing instead of silently dropping the shard from recovery.
func TestListGroupDirsUnreadable(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("directory permissions do not bind as root")
	}
	root := t.TempDir()
	for _, g := range []string{"0", "7"} {
		if err := os.Mkdir(filepath.Join(root, g), 0o700); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chmod(filepath.Join(root, "7"), 0); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(filepath.Join(root, "7"), 0o700)
	if _, err := ListGroupDirs(root); err == nil {
		t.Fatal("unreadable group dir silently skipped")
	}
}

// TestListGroupDirsFollowsSymlinks: a group namespace that is a symlink to
// a real directory (state on another volume) is listed, while numeric
// plain files are still ignored.
func TestListGroupDirsFollowsSymlinks(t *testing.T) {
	root := t.TempDir()
	target := t.TempDir()
	if err := os.Symlink(target, filepath.Join(root, "3")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if err := os.WriteFile(filepath.Join(root, "9"), []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := ListGroupDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("got %v, want [3]", got)
	}
}

// TestSmallFilesSurviveCrash: the keys and the fence epoch are landed
// durably, so a crash right after Open, AdoptSigningKey or SetFenceEpoch
// reopens with the same keys and epoch; and reopening an existing
// directory writes nothing.
func TestSmallFilesSurviveCrash(t *testing.T) {
	mem := vfs.NewMem(nil)
	open := func() *Store {
		t.Helper()
		st := openStore(t, "/s", Options{FS: mem})
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	files := func() map[string][]byte {
		t.Helper()
		ents, err := mem.ReadDir("/s")
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, e := range ents {
			if out[e.Name()], err = mem.ReadFile("/s/" + e.Name()); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	crashAndReopen := func(st *Store, seed []byte, epoch uint64) *Store {
		t.Helper()
		st.Close()
		mem.Crash(nil)
		before := files()
		st = open()
		if !maps.EqualFunc(before, files(), bytes.Equal) {
			t.Fatal("reopening an existing directory wrote to it")
		}
		if !bytes.Equal(st.SigningSeed(), seed) || st.FenceEpoch() != epoch {
			t.Fatalf("reopened with epoch %d, signing seed equal %v; want epoch %d",
				st.FenceEpoch(), bytes.Equal(st.SigningSeed(), seed), epoch)
		}
		return st
	}

	st := open()
	st = crashAndReopen(st, st.SigningSeed(), 0)
	adopted := bytes.Repeat([]byte{7}, 32)
	if err := st.AdoptSigningKey(adopted); err != nil {
		t.Fatal(err)
	}
	st = crashAndReopen(st, adopted, 0)
	if err := st.SetFenceEpoch(5); err != nil {
		t.Fatal(err)
	}
	st = crashAndReopen(st, adopted, 5)
	st.Close()
}
