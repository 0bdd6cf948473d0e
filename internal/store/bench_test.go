package store

import (
	"math/rand"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
)

// Recovery benchmarks over the crash image the epoch benchmark's recovery
// run builds: a OneTree group of 10k members behind a snapshot, then 32
// batches of 256 replacements in the WAL.
const (
	benchMembers      = 10_000
	benchBatches      = 32
	benchReplacements = 256
)

// benchImage journals the image into dir. It returns what a follower
// restores and then applies: the scheme blob, sequence and next member ID
// at the snapshot, and the records past it.
func benchImage(b *testing.B, dir string) (blob []byte, snapSeq uint64, nextID keytree.MemberID, recs []Record) {
	b.Helper()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		b.Fatal(err)
	}
	sc, err := st.Create(SchemeConfig{Kind: SchemeOneTree})
	if err != nil {
		b.Fatal(err)
	}
	apply := func(batch core.Batch) {
		if err := st.JournalBatch(batch); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.ProcessBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	var fill core.Batch
	for m := keytree.MemberID(1); m <= benchMembers; m++ {
		fill.Joins = append(fill.Joins, core.Join{ID: m, Meta: core.MemberMeta{LossRate: -1}})
	}
	apply(fill)
	nextID = benchMembers + 1
	if err := st.SaveSnapshot(sc, nextID); err != nil {
		b.Fatal(err)
	}
	if blob, err = sc.Snapshot(); err != nil {
		b.Fatal(err)
	}
	snapSeq = st.LastSeq()
	members, id := sc.Members(), nextID
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < benchBatches; i++ {
		var batch core.Batch
		for _, j := range rng.Perm(len(members))[:benchReplacements] {
			batch.Leaves = append(batch.Leaves, members[j])
			members[j] = id
			batch.Joins = append(batch.Joins, core.Join{ID: id, Meta: core.MemberMeta{LossRate: -1}})
			id++
		}
		apply(batch)
	}
	recs, ok, err := st.RecordsFrom(snapSeq)
	if err != nil || !ok || len(recs) != benchBatches {
		b.Fatalf("records past the snapshot: %d (ok %v, err %v)", len(recs), ok, err)
	}
	return blob, snapSeq, nextID, recs
}

// reportMillis reports the timed part of each op in milliseconds.
func reportMillis(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}

// BenchmarkRecover times Open + Recover of the image: the snapshot load,
// the replay of 32 batches and the seal of the newest one.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	benchImage(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		res, err := st.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if res.ReplayedBatches != benchBatches {
			b.Fatalf("recovered %d batches of %d", res.ReplayedBatches, benchBatches)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	reportMillis(b)
}

// BenchmarkReplicaApply times a follower applying the image's 32 WAL
// records on top of its snapshot; installing the snapshot is untimed.
func BenchmarkReplicaApply(b *testing.B) {
	blob, snapSeq, nextID, recs := benchImage(b, b.TempDir())
	st, err := Open(b.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sc, err := st.InstallSnapshot(snapSeq, nextID, blob)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, rec := range recs {
			if sc, _, _, err = st.ReplicaApply(sc, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportMillis(b)
}
