package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// journalAndApply drives the server's journal-before-apply contract.
func journalAndApply(t *testing.T, st *Store, sc core.Scheme, b core.Batch) *core.Rekey {
	t.Helper()
	if err := st.JournalBatch(b); err != nil {
		t.Fatalf("JournalBatch: %v", err)
	}
	r, err := sc.ProcessBatch(b)
	if err != nil {
		t.Fatalf("ProcessBatch: %v", err)
	}
	return r
}

// encodeItems is items in their wire encoding.
func encodeItems(t *testing.T, items []keytree.Item) []byte {
	t.Helper()
	var out []byte
	for _, it := range items {
		var err error
		if out, err = wire.AppendRekeyItem(out, it); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func snap(t *testing.T, sc core.Scheme) []byte {
	t.Helper()
	blob, err := sc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// referenceRun journals a scripted history (create + batches + a rotation
// + an empty heartbeat) and returns the scheme plus the state blob after
// every operation: states[i] is the scheme state once i operations have
// been applied on top of the create.
func referenceRun(t *testing.T, st *Store, cfg SchemeConfig, nBatches int, seed int64) (core.Scheme, [][]byte, keytree.MemberID) {
	t.Helper()
	sc, err := st.Create(cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	states := [][]byte{snap(t, sc)}
	rng := rand.New(rand.NewSource(seed))
	nextID := keytree.MemberID(1)
	present := []keytree.MemberID{}
	for i := 0; i < nBatches; i++ {
		var b core.Batch
		switch {
		case i == nBatches/2:
			// Heartbeat: epoch and migration clocks advance, nothing else.
		case i == nBatches/2+1 && len(present) > 0:
			// Scheduled rotation instead of a batch.
			if err := st.JournalRotate(); err != nil {
				t.Fatalf("JournalRotate: %v", err)
			}
			if _, err := sc.(core.Rotator).Rotate(); err != nil {
				t.Fatalf("Rotate: %v", err)
			}
			states = append(states, snap(t, sc))
			continue
		default:
			nJoin := 1 + rng.Intn(3)
			for j := 0; j < nJoin; j++ {
				b.Joins = append(b.Joins, core.Join{ID: nextID, Meta: core.MemberMeta{
					LossRate: []float64{-1, 0.002, 0.2}[rng.Intn(3)],
				}})
				nextID++
			}
			if len(present) > 2 && rng.Intn(2) == 0 {
				k := rng.Intn(len(present))
				b.Leaves = append(b.Leaves, present[k])
				present = append(present[:k], present[k+1:]...)
			}
		}
		journalAndApply(t, st, sc, b)
		for _, j := range b.Joins {
			present = append(present, j.ID)
		}
		states = append(states, snap(t, sc))
	}
	return sc, states, nextID
}

func schemeConfigs() []SchemeConfig {
	return []SchemeConfig{
		{Kind: SchemeOneTree},
		{Kind: SchemeNaive},
		{Kind: SchemeTT, SPeriodK: 2},
		{Kind: SchemeQT, SPeriodK: 1},
		{Kind: SchemeLossHomog, LossBounds: []float64{0.05}},
		{Kind: SchemeRandomMultiTree, Trees: 2},
		// Planner-enabled variants: replay must reproduce the planner's
		// placement decisions byte-for-byte, from the WAL and from
		// snapshots alike.
		{Kind: SchemeOneTree, Planner: true},
		{Kind: SchemeTT, SPeriodK: 2, Planner: true},
	}
}

// TestStoreRecoverReplaysToIdenticalState is the core durability claim:
// close the store with NO snapshot (the crash case) and recovery must
// rebuild byte-identical scheme state — same keys, same epoch, same
// counters — purely from the WAL's seeded replay.
func TestStoreRecoverReplaysToIdenticalState(t *testing.T) {
	for _, cfg := range schemeConfigs() {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{})
			if res, err := st.Recover(); err != nil || res.Scheme != nil {
				t.Fatalf("fresh recover: scheme=%v err=%v", res.Scheme, err)
			}
			sc, states, wantNextID := referenceRun(t, st, cfg, 8, 12345)
			// A last batch with a departure.
			journalAndApply(t, st, sc, core.Batch{
				Joins:  []core.Join{{ID: wantNextID, Meta: core.MemberMeta{LossRate: 0.2}}},
				Leaves: sc.Members()[:1],
			})
			wantNextID++
			want := snap(t, sc)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2 := openStore(t, dir, Options{})
			res, err := st2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if res.Scheme == nil {
				t.Fatal("recovered nil scheme")
			}
			if got := snap(t, res.Scheme); !bytes.Equal(got, want) {
				t.Fatalf("recovered state differs: %d vs %d bytes", len(got), len(want))
			}
			if res.NextID < wantNextID {
				t.Fatalf("NextID %d would reuse issued IDs (want ≥ %d)", res.NextID, wantNextID)
			}
			if res.ReplayedBatches+res.ReplayedRotations != len(states) {
				t.Fatalf("replayed %d+%d ops, want %d", res.ReplayedBatches, res.ReplayedRotations, len(states))
			}

			// The recovered store keeps journaling: a second life, then a
			// third, all byte-identical.
			journalAndApply(t, st2, res.Scheme, core.Batch{
				Joins: []core.Join{{ID: res.NextID, Meta: core.MemberMeta{LossRate: 0.01}}},
			})
			want2 := snap(t, res.Scheme)
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3 := openStore(t, dir, Options{})
			res3, err := st3.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if got := snap(t, res3.Scheme); !bytes.Equal(got, want2) {
				t.Fatal("second restart diverged")
			}
			if err := st3.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreSnapshotCompactsAndRecovers saves a snapshot mid-history: the
// WAL shrinks, old snapshots are pruned, and recovery = snapshot load +
// replay of only the tail.
func TestStoreSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{SegmentBytes: 512})
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	sc, _, _ := referenceRun(t, st, SchemeConfig{Kind: SchemeOneTree}, 6, 777)
	segsBefore, _ := segments(dir)
	if err := st.SaveSnapshot(sc, 100); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	segsAfter, _ := segments(dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("snapshot did not compact the WAL: %d -> %d segments", len(segsBefore), len(segsAfter))
	}
	// Two more operations after the snapshot.
	journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: 100}}})
	journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: 101}}})
	want := snap(t, sc)
	snapSeq := st.snapSeq
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, Options{})
	res, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.SnapshotSeq != snapSeq {
		t.Fatalf("recovered from snapshot seq %d, want %d", res.SnapshotSeq, snapSeq)
	}
	if res.ReplayedBatches != 2 {
		t.Fatalf("replayed %d batches, want only the 2 past the snapshot", res.ReplayedBatches)
	}
	if got := snap(t, res.Scheme); !bytes.Equal(got, want) {
		t.Fatal("snapshot+replay state differs from pre-restart state")
	}
	if res.NextID != 102 {
		t.Fatalf("NextID %d, want 102", res.NextID)
	}
	// Save twice more: pruning keeps at most snapKeep snapshot files.
	if err := st2.SaveSnapshot(res.Scheme, res.NextID); err != nil {
		t.Fatal(err)
	}
	if err := st2.SaveSnapshot(res.Scheme, res.NextID); err != nil {
		t.Fatal(err)
	}
	files, _ := snapshotFiles(dir)
	if len(files) > snapKeep {
		t.Fatalf("%d snapshot files survive pruning, want ≤ %d", len(files), snapKeep)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreCrashInjection kills the WAL at random points — truncations
// and byte flips in random segments — and requires recovery to land
// exactly on the state after the last surviving operation, for every
// trial. The scan of the corrupted directory provides the oracle for how
// many operations survive; replay must reproduce precisely that prefix.
func TestStoreCrashInjection(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      SchemeConfig
		snapshot bool // save a mid-history snapshot before corrupting
	}{
		{"onetree-wal-only", SchemeConfig{Kind: SchemeOneTree}, false},
		{"tt-wal-only", SchemeConfig{Kind: SchemeTT, SPeriodK: 2}, false},
		{"onetree-with-snapshot", SchemeConfig{Kind: SchemeOneTree}, true},
		{"losshomog-with-snapshot", SchemeConfig{Kind: SchemeLossHomog, LossBounds: []float64{0.05}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refDir := t.TempDir()
			// Small segments spread the history over several files so the
			// create record sits alone in the first segment and corruption
			// trials can target any later one.
			st := openStore(t, refDir, Options{SegmentBytes: 512})
			if _, err := st.Recover(); err != nil {
				t.Fatal(err)
			}
			sc, states, _ := referenceRun(t, st, tc.cfg, 10, 999)
			snapOps := 0
			if tc.snapshot {
				// The snapshot covers the history so far; later corruption can
				// never push recovery below this floor.
				if err := st.SaveSnapshot(sc, 1000); err != nil {
					t.Fatal(err)
				}
				snapOps = len(states) - 1
				journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: 1000}}})
				states = append(states, snap(t, sc))
				journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: 1001}}})
				states = append(states, snap(t, sc))
			}
			snapSeq := st.snapSeq
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(4242))
			trials := 25
			for trial := 0; trial < trials; trial++ {
				dir := t.TempDir()
				copyDir(t, refDir, dir)
				segs, err := segments(dir)
				if err != nil {
					t.Fatal(err)
				}
				// Corrupt a random point in a random segment past the first
				// (the create record must survive for the WAL-only cases;
				// killing it is a separate test below).
				lo := 1
				if tc.snapshot {
					lo = 0 // snapshot floor makes even segment 0 fair game
				}
				if lo >= len(segs) {
					t.Fatalf("history too short: %d segments", len(segs))
				}
				si := lo + rng.Intn(len(segs)-lo)
				data, err := os.ReadFile(segs[si])
				if err != nil {
					t.Fatal(err)
				}
				if len(data) == 0 {
					continue
				}
				off := rng.Intn(len(data))
				if rng.Intn(2) == 0 {
					data = data[:off] // torn tail
				} else {
					data = append([]byte(nil), data...)
					data[off] ^= 0x40 // bit flip
				}
				if err := os.WriteFile(segs[si], data, 0o600); err != nil {
					t.Fatal(err)
				}

				// Oracle: how many operations survive the corruption?
				scan, err := scanWAL(dir)
				if err != nil {
					t.Fatal(err)
				}
				ops := snapOps
				for _, r := range scan.records {
					if r.seq > snapSeq && (r.kind == recBatch || r.kind == recRotate) {
						ops++
					}
				}

				st2 := openStore(t, dir, Options{})
				res, err := st2.Recover()
				if err != nil {
					t.Fatalf("trial %d (seg %d off %d): Recover: %v", trial, si, off, err)
				}
				if res.Scheme == nil {
					t.Fatalf("trial %d: recovered nil scheme with create intact", trial)
				}
				got := snap(t, res.Scheme)
				if !bytes.Equal(got, states[ops]) {
					t.Fatalf("trial %d (seg %d off %d): recovered state is not the %d-op prefix state",
						trial, si, off, ops)
				}
				// The survivor keeps working: journal one more batch.
				journalAndApply(t, st2, res.Scheme, core.Batch{Joins: []core.Join{{ID: res.NextID}}})
				if err := st2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStoreCreateRecordCorrupted: with no snapshot and a destroyed create
// record, there is nothing to recover — the store must come up empty
// rather than guess.
func TestStoreCreateRecordCorrupted(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	referenceRun(t, st, SchemeConfig{Kind: SchemeOneTree}, 3, 55)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xff // inside the create record body
	if err := os.WriteFile(segs[0], data, 0o600); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, Options{})
	res, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Scheme != nil {
		t.Fatal("recovered a scheme from a log whose create record is gone")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverReportsUnsupportedSnapshot: a state directory written before
// the current envelope version, whose WAL was compacted behind the
// snapshot, must fail recovery with the snapshot's version error — not
// just a WAL gap — and with no WAL left it must not boot fresh. Version 2
// carried a scheme-config section; versions 3 and 4 have today's layout
// but were written under replay rules 0 and 1, so the WAL after them would
// replay to other keys.
func TestRecoverReportsUnsupportedSnapshot(t *testing.T) {
	for _, version := range []uint32{2, 3, 4} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{SegmentBytes: 512})
			if _, err := st.Recover(); err != nil {
				t.Fatal(err)
			}
			sc, _, _ := referenceRun(t, st, SchemeConfig{Kind: SchemeOneTree}, 6, 91)
			if err := st.SaveSnapshot(sc, 100); err != nil {
				t.Fatal(err)
			}
			journalAndApply(t, st, sc, core.Batch{Joins: []core.Join{{ID: 100}}})
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if first, _ := scanWAL(dir); len(first.records) == 0 || first.records[0].seq == 1 {
				t.Fatal("snapshot did not compact the WAL's head; the test needs a gap")
			}
			// Rewrite every snapshot as an old envelope of the same state.
			files, _ := snapshotFiles(dir)
			for _, path := range files {
				sealed, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := keycrypt.Open(st.master, sealed)
				if err != nil {
					t.Fatal(err)
				}
				seq, nextID, blob, err := decodeSnapshotPlain(plain)
				if err != nil {
					t.Fatal(err)
				}
				old := encodeSnapshotPlain(seq, nextID, blob)
				binary.BigEndian.PutUint32(old[len(snapMagic):], version)
				if version == 2 {
					old = v2SnapshotPlain(seq, uint64(nextID), SchemeConfig{Kind: SchemeOneTree}, blob)
				}
				resealed, err := keycrypt.Seal(st.master, old, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, resealed, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			noWAL := t.TempDir()
			copyDir(t, dir, noWAL)
			segs, _ := segments(noWAL)
			for _, p := range segs {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}

			want := fmt.Sprintf("unsupported version %d", version)
			for name, d := range map[string]string{"compacted wal": dir, "no wal": noWAL} {
				st := openStore(t, d, Options{})
				res, err := st.Recover()
				st.Close()
				if !errors.Is(err, errBadSnapshot) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: Recover = %v, want errBadSnapshot: %s", name, err, want)
				}
				if res != nil {
					t.Errorf("%s: recovered a result from an unreadable snapshot", name)
				}
			}
		})
	}
}

// TestRecoverRefusesPreRuleCreateRecord: a WAL whose create record was
// written under an older replay rule is refused by name. Rule 0 (the
// record ends after the planner flag) drew the key trees' wrap nonces
// inside Advance; rule 1 minted each TT/QT migrant a fresh L leaf key.
// Replayed under rule 2 their batches would derive other keys than the
// members hold.
func TestRecoverRefusesPreRuleCreateRecord(t *testing.T) {
	enc := SchemeConfig{Kind: SchemeTT, SPeriodK: 2}.encode()
	for rule, rec := range map[int][]byte{
		0: enc[:len(enc)-1],
		1: append(enc[:len(enc)-1:len(enc)-1], 1),
	} {
		t.Run(fmt.Sprintf("rule%d", rule), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{})
			if _, err := st.Recover(); err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			_, err := st.journalLocked(recCreate, rec)
			st.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, dir, Options{})
			defer st2.Close()
			res, err := st2.Recover()
			want := fmt.Sprintf("replay rule %d", rule)
			if !errors.Is(err, errBadCreateRecord) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Recover = %v, want errBadCreateRecord: %s", err, want)
			}
			if res != nil {
				t.Fatalf("recovered a result from a rule-%d create record", rule)
			}
		})
	}
}

// countDraws makes every scheme st builds draw through a counter, so a
// test sees how many bytes the schemes took from the record streams.
func countDraws(st *Store) *countingReader {
	c := &countingReader{r: st.rand}
	st.opts.SchemeOptions = []core.Option{core.WithRand(c)}
	return c
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReplayDrawsOnlyKeyMaterial: the live run seals every rekey, drawing
// one nonce per key-tree wrap after the batch's keys; replay only advances,
// so Recover draws exactly the live run's bytes minus a nonce per wrap,
// which is one key's bytes per key the tree minted, and still rebuilds the
// live state.
func TestReplayDrawsOnlyKeyMaterial(t *testing.T) {
	dir := t.TempDir()
	live := openStore(t, dir, Options{Fsync: FsyncNever})
	liveDraws := countDraws(live)
	if _, err := live.Recover(); err != nil {
		t.Fatal(err)
	}
	sc, err := live.Create(SchemeConfig{Kind: SchemeOneTree, Planner: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	next, wraps := keytree.MemberID(1), 0
	for i := 0; i < 12; i++ {
		var b core.Batch
		members := sc.Members()
		for _, k := range rng.Perm(len(members))[:min(len(members), rng.Intn(8))] {
			b.Leaves = append(b.Leaves, members[k])
		}
		for j := rng.Intn(20); j >= 0; j-- {
			b.Joins = append(b.Joins, core.Join{ID: next})
			next++
		}
		wraps += journalAndApply(t, live, sc, b).TotalKeyCount()
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	replay := openStore(t, dir, Options{})
	defer replay.Close()
	replayDraws := countDraws(replay)
	res, err := replay.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayedBatches != 12 {
		t.Fatalf("replayed %d batches, want 12", res.ReplayedBatches)
	}
	if want := liveDraws.n - wraps*keycrypt.NonceSize; replayDraws.n != want {
		t.Fatalf("replay drew %d bytes, want the live %d minus %d wraps' nonces = %d", replayDraws.n, liveDraws.n, wraps, want)
	}
	minted := res.Scheme.(*core.OneTree).Tree().Stats().KeysRefreshed
	if want := minted * keycrypt.KeySize; replayDraws.n != want {
		t.Fatalf("replay drew %d bytes for %d minted keys, want %d", replayDraws.n, minted, want)
	}
	if !bytes.Equal(snap(t, res.Scheme), snap(t, sc)) {
		t.Fatal("recovered state differs from the live one")
	}
}

// TestBatchAfterRecoverRekeys: Recover leaves the entropy stream closed,
// and the next journaled batch opens its own: the recovered scheme rekeys
// and seals, and each joiner opens its whole path.
func TestBatchAfterRecoverRekeys(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Fsync: FsyncNever})
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	_, _, next := referenceRun(t, st, SchemeConfig{Kind: SchemeTT, SPeriodK: 1}, 5, 23)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, Options{Fsync: FsyncNever})
	defer st2.Close()
	res, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Rand().Read(make([]byte, 1)); !errors.Is(err, errOutsideJournal) {
		t.Fatalf("draw after Recover: err=%v, want %v", err, errOutsideJournal)
	}
	b := core.Batch{Leaves: res.Scheme.Members()[:2], Joins: []core.Join{{ID: next}, {ID: next + 1}}}
	rk := journalAndApply(t, st2, res.Scheme, b)
	opened := 0
	for _, it := range rk.AllItems() {
		if it.Wrapped == (keycrypt.WrappedKey{}) {
			t.Fatal("an item of the rekey after Recover was never sealed")
		}
		if len(it.Receivers) != 1 {
			continue
		}
		if leaf, ok := rk.Welcome[it.Receivers[0]]; ok { // not a migrant's
			if _, err := keycrypt.Unwrap(it.Wrapped, leaf); err != nil {
				t.Fatalf("joiner %d cannot open its item: %v", it.Receivers[0], err)
			}
			opened++
		}
	}
	if opened == 0 {
		t.Fatal("no joiner item after Recover")
	}
}

// TestStoreFsyncPolicies exercises the interval and never paths end to
// end (a process restart — unlike a power failure — loses nothing under
// any policy, since the data is in the kernel).
func TestStoreFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{Fsync: policy, FsyncEvery: 5 * time.Millisecond})
			if _, err := st.Recover(); err != nil {
				t.Fatal(err)
			}
			sc, _, _ := referenceRun(t, st, SchemeConfig{Kind: SchemeNaive}, 4, 31)
			want := snap(t, sc)
			if policy == FsyncInterval {
				time.Sleep(30 * time.Millisecond) // let the background syncer run
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, dir, Options{})
			res, err := st2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if got := snap(t, res.Scheme); !bytes.Equal(got, want) {
				t.Fatal("state diverged across restart")
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreEntropyGuard: key material must never come from outside a
// journaled operation, or replay could not reproduce it.
func TestStoreEntropyGuard(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rand().Read(make([]byte, 16)); err == nil {
		t.Fatal("entropy read outside a journaled operation succeeded")
	}
	if err := st.JournalBatch(core.Batch{}); err == nil {
		t.Fatal("journal before Create succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreKeyFiles: master and signing keys are created 0600 and loaded
// back unchanged, and the reloaded master key opens the sealed snapshot.
func TestStoreKeyFiles(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	sc, _, _ := referenceRun(t, st, SchemeConfig{Kind: SchemeOneTree}, 3, 9)
	want := snap(t, sc)
	sig1 := st.SigningKey()
	if err := st.SaveSnapshot(sc, 50); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"master.key", "signing.key"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o600 {
			t.Fatalf("%s has mode %v, want 0600", name, fi.Mode().Perm())
		}
	}

	st2 := openStore(t, dir, Options{})
	if !st2.SigningKey().Equal(sig1) {
		t.Fatal("signing key changed across restart")
	}
	res, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap(t, res.Scheme); !bytes.Equal(got, want) {
		t.Fatal("snapshot-based recovery diverged")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}
