package main

import (
	"crypto/ed25519"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/fec"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// The traced run. Nothing inside the program is instrumented: every
// per-layer number comes from timing calls into a layer's public functions
// from here. Each measured epoch hands over the batch the server was given
// and the *core.Rekey it returned; the tracer replays them through shadow
// instances — a durable twin of the scheme on its own store, a follower
// store fed by Subscribe, one key tree with and one without the planner —
// and through the wire, fec and keycrypt codecs, in the untimed gap after
// the epoch's drain. The live epoch's own spans are cut from timestamps
// runEpoch takes anyway, so tracing adds nothing to the timed path; what
// it does add (a larger heap, colder caches) is what trace_overhead_pct
// reports, from a first stretch of the same run with the replay off.

// span is one timed interval. Parent 0 is the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Epoch  int     `json:"epoch"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

const (
	// The plane's geometry (server.UDPConfig defaults): shards per block,
	// items per shard. parityShards is what ProactiveParity picks for 5%
	// loss at k=8.
	fecData      = 8
	fecParity    = 2
	keysPerDgram = 12
	// sampleMembers sparse frames are built and verified per epoch.
	sampleMembers = 8
	// cryptoOps wraps and unwraps are timed per epoch.
	cryptoOps = 64
	// emptyEvery: every so many epochs the shadow scheme also processes an
	// empty batch (the heartbeat epoch's cost).
	emptyEvery = 8
	// offShare of the measured phase runs with the replay off, as the
	// baseline for trace_overhead_pct.
	offShare = 0.25
)

type tracer struct {
	e   *env
	dir string

	// offFor/offEpochs: how long the replay stays off at the start.
	offFor    time.Duration
	offEpochs int
	began     time.Time
	offRekey  []float64
	onRekey   []float64
	// paused is time spent building the shadows, which the measured phase
	// does not count; memOff is the allocator's state when the untraced
	// stretch ended.
	paused time.Duration
	built  bool
	memOff runtime.MemStats

	spans []span

	st, follower         *store.Store
	sub                  *store.Subscription
	scheme, followerSide core.Scheme
	nextID               keytree.MemberID
	tree, twin           *keytree.Tree // live planner setting, and the opposite
	priv                 ed25519.PrivateKey
	wrapper              *keycrypt.Wrapper
	coder                *fec.Coder
	gen                  keycrypt.Generator

	series               map[string][]float64
	treeWraps, twinWraps float64
	replayed             int
	base                 map[string]uint64 // server counters when tracing began
}

func newTracer(e *env, scratch string, seconds float64, maxEpochs int) (*tracer, error) {
	t := &tracer{e: e, dir: filepath.Join(scratch, "shadow"), series: map[string][]float64{}}
	if maxEpochs > 0 {
		t.offEpochs = maxEpochs / 4
	} else {
		t.offFor = time.Duration(offShare * seconds * float64(time.Second))
	}
	_, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	t.priv = priv
	t.wrapper = keycrypt.NewWrapper()
	if t.coder, err = fec.NewCoder(fecData, fecParity); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracer) close() {
	if t.sub != nil {
		t.st.Unsubscribe(t.sub)
	}
	if t.st != nil {
		t.st.Close()
	}
	if t.follower != nil {
		t.follower.Close()
	}
}

// pausedFor is measured-phase wall time the run loop should not count.
func (t *tracer) pausedFor() time.Duration {
	if t == nil {
		return 0
	}
	return t.paused
}

// epoch runs measured epoch i, traced or not.
func (t *tracer) epoch(e *env, i int) (*epochResult, error) {
	if t == nil {
		return e.runEpoch(e.nextPlan())
	}
	if t.began.IsZero() {
		t.began = time.Now()
	}
	off := i < t.offEpochs || (t.offEpochs == 0 && time.Since(t.began) < t.offFor)
	if !off && !t.built {
		start := time.Now()
		runtime.ReadMemStats(&t.memOff)
		if err := t.build(); err != nil {
			return nil, err
		}
		t.paused = time.Since(start)
		t.built = true
	}
	ep, err := e.runEpoch(e.nextPlan())
	if err != nil {
		return nil, err
	}
	if off {
		t.offRekey = append(t.offRekey, ep.rekeyMs)
		return ep, nil
	}
	t.onRekey = append(t.onRekey, ep.rekeyMs)
	return ep, t.replay(i, ep)
}

// build copies the live state into the shadow instances.
func (t *tracer) build() error {
	e := t.e
	var blob []byte
	err := e.srv.BootstrapState(func(sc core.Scheme, next keytree.MemberID) error {
		var err error
		blob, err = sc.Snapshot()
		t.nextID = next
		return err
	})
	if err != nil {
		return err
	}
	if err := os.RemoveAll(t.dir); err != nil {
		return err
	}
	cfg := e.w.schemeConfig()
	if t.st, t.scheme, err = durableTwin(filepath.Join(t.dir, "primary"), cfg, t.nextID, blob); err != nil {
		return err
	}
	if t.follower, t.followerSide, err = durableTwin(filepath.Join(t.dir, "follower"), cfg, t.nextID, blob); err != nil {
		return err
	}
	// One record is in flight at a time: the replay applies each before
	// journaling the next.
	t.sub = t.st.Subscribe(4)

	members := t.scheme.Members()
	if t.tree, err = shadowTree(e.w, members, e.w.tt); err != nil {
		return err
	}
	if t.twin, err = shadowTree(e.w, members, !e.w.tt); err != nil {
		return err
	}
	t.base = t.counters()
	runtime.GC()
	return nil
}

// shadowTree rebuilds a single key tree holding members by the same steps
// set-up used — phantoms, spaced removals, then everyone else joining into
// the gaps — so connected members sit as spread out as in the live tree.
func shadowTree(w workload, members []keytree.MemberID, planner bool) (*keytree.Tree, error) {
	opts := []keytree.Option{keytree.WithWrapWorkers(0)}
	if planner {
		opts = append(opts, keytree.WithPlanner(keytree.PlannerConfig{}))
	}
	tr, err := keytree.New(4, opts...)
	if err != nil {
		return nil, err
	}
	joins, leaves := w.phantomBatches()
	var rest keytree.Batch
	for _, m := range members {
		if int(m) > len(joins.Joins) {
			rest.Joins = append(rest.Joins, m)
		}
	}
	for _, b := range []keytree.Batch{treeBatch(joins), treeBatch(leaves), rest} {
		if b.IsEmpty() {
			continue
		}
		if _, err := tr.Rekey(b); err != nil {
			return nil, fmt.Errorf("shadow tree: %w", err)
		}
	}
	return tr, nil
}

func treeBatch(b core.Batch) keytree.Batch {
	kb := keytree.Batch{Leaves: b.Leaves}
	for _, j := range b.Joins {
		kb.Joins = append(kb.Joins, j.ID)
	}
	return kb
}

func (t *tracer) obs(name string, v float64) { t.series[name] = append(t.series[name], v) }

// replay cuts the live epoch's spans and runs the per-layer replay.
func (t *tracer) replay(i int, ep *epochResult) error {
	now := t.e.clk.now
	root := t.add(0, "epoch", i, ep.at.start, ep.at.start) // end patched below
	t.add(root, "runtime.gc", i, ep.at.start, ep.at.collected)
	t.add(root, "driver.prep", i, ep.at.collected, ep.at.called)
	t.add(root, "server.rekey_now", i, ep.at.called, ep.at.returned)
	t.add(root, "server.broadcast", i, ep.at.returned, ep.at.broadcast)
	t.add(root, "server.fanout_wait", i, ep.at.broadcast, ep.at.arrived)
	t.add(root, "member.drain", i, ep.at.arrived, ep.at.drained)
	t.add(root, "driver.fold", i, ep.at.drained, ep.at.end)
	rp := t.add(root, "replay", i, now(), 0)
	// timed runs fn as a child span of the replay and records its
	// duration in the series of the same name.
	timed := func(name string, fn func() error) (float64, error) {
		id := t.add(rp, name, i, now(), 0)
		err := fn()
		t.spans[id-1].End = ms(now())
		d := t.spans[id-1].End - t.spans[id-1].Start
		t.obs(name, d)
		return d, err
	}

	b, kb := ep.batch, treeBatch(ep.batch)
	layers := 0.0 // what the replayed layers account for of this epoch's RekeyNow

	// store, core: journal then apply, as the server does.
	walBefore := dirBytes(t.st.Dir(), "wal-")
	d, err := timed("store.journal", func() error { return t.st.JournalBatch(b) })
	if err != nil {
		return err
	}
	if t.e.st != nil {
		layers += d
	}
	t.obs("store.wal_bytes", float64(dirBytes(t.st.Dir(), "wal-")-walBefore))
	var shadow *core.Rekey
	d, err = timed("core.process_batch", func() error {
		var err error
		shadow, err = t.scheme.ProcessBatch(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("shadow scheme: %w", err)
	}
	layers += d
	process := d
	t.obs("core.migrations", float64(migrations(shadow, b)))
	if _, err = timed("store.replica_apply", t.followerApply); err != nil {
		return err
	}

	// keytree: the same batch on a single tree, planner as live and not.
	if !kb.IsEmpty() {
		if _, err = timed("keytree.plan_batch", func() error {
			_, err := t.tree.PlanBatch(kb)
			return err
		}); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var p *keytree.Payload
		d, err = timed("keytree.rekey", func() error {
			var err error
			p, err = t.tree.Rekey(kb)
			return err
		})
		if err != nil {
			return fmt.Errorf("shadow tree: %w", err)
		}
		runtime.ReadMemStats(&m1)
		if n := p.TotalKeyCount(); n > 0 {
			t.obs("keytree.allocs_per_key", float64(m1.Mallocs-m0.Mallocs)/float64(n))
			t.obs("keytree.keys_per_s", float64(n)/(d/1e3))
		}
		t.obs("core.self", process-d)
		t.treeWraps += float64(p.MulticastKeyCount())
		var q *keytree.Payload
		if _, err = timed("keytree.rekey_twin", func() error {
			var err error
			q, err = t.twin.Rekey(kb)
			return err
		}); err != nil {
			return fmt.Errorf("shadow twin tree: %w", err)
		}
		t.twinWraps += float64(q.MulticastKeyCount())
	}

	// wire: the seal, part by part, on the payload the server really sent.
	items := ep.rekey.AllItems()
	var buf []byte
	d, err = timed("wire.encode_items", func() error {
		var err error
		for _, it := range items {
			if buf, err = wire.AppendRekeyItem(buf, it); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layers += d
	var itree *wire.ItemTree
	var root32 [wire.HashSize]byte
	d, _ = timed("wire.merkle", func() error {
		itree = wire.NewItemTree(len(items), func(i int) []byte {
			return buf[i*wire.RekeyItemSize : (i+1)*wire.RekeyItemSize]
		})
		root32 = itree.Root()
		return nil
	})
	layers += d
	var sig []byte
	d, _ = timed("wire.sign", func() error {
		sig = wire.SignSparse(t.priv, ep.epoch, uint32(len(items)), root32)
		return nil
	})
	layers += d
	var index map[keytree.MemberID][]uint32
	d, _ = timed("wire.sparse_index", func() error {
		index = wire.SparseIndex(items)
		return nil
	})
	layers += d
	var full []byte
	d, err = timed("wire.full_blob", func() error {
		blob, err := wire.EncodeRekey(ep.epoch, items)
		full = wire.SignRekey(t.priv, blob)
		return err
	})
	if err != nil {
		return err
	}
	layers += d
	t.obs("wire.full_blob_bytes", float64(len(full)))
	// The fan-out loop sizes every connected member's frame under the
	// server lock (proof size included) for its byte accounting.
	d, _ = timed("wire.frame_sizes", func() error {
		for _, p := range t.e.members {
			wire.SparseFrameSize(itree, index[p.id])
		}
		return nil
	})
	layers += d
	t.obs("identity.layers", layers)
	t.obs("identity.rekey", ep.rekeyMs)
	t.obs("server.self", ep.rekeyMs-layers)

	// One member's frame: what a writer goroutine assembles, and what the
	// member does with it. A few connected members per epoch.
	pub := t.priv.Public().(ed25519.PublicKey)
	for n, p := range t.e.members {
		if n >= sampleMembers {
			break
		}
		idx := index[p.id]
		var frame []byte
		d, _ = timed("wire.sparse_frame", func() error {
			frame = wire.EncodeSparseRekey(ep.epoch, itree, root32, sig, idx, buf)
			return nil
		})
		if _, err = timed("wire.sparse_verify", func() error {
			_, err := wire.DecodeSparseRekey(pub, frame)
			return err
		}); err != nil {
			return fmt.Errorf("replayed sparse frame: %w", err)
		}
	}

	// Datagram plane: one signed shard, one FEC block.
	if err := t.replayDatagram(timed, ep.epoch, buf); err != nil {
		return err
	}
	if err := t.replayCrypto(timed); err != nil {
		return err
	}

	// Heartbeat epochs and periodic snapshots, at the cadence a server
	// would see them.
	t.replayed++
	if t.replayed%emptyEvery == 0 {
		if err := t.st.JournalBatch(core.Batch{}); err != nil {
			return err
		}
		if _, err = timed("core.empty_batch", func() error {
			_, err := t.scheme.ProcessBatch(core.Batch{})
			return err
		}); err != nil {
			return err
		}
		if err := t.followerApply(); err != nil {
			return err
		}
	}
	if t.replayed%snapshotEvery == 0 {
		if err := t.snapshot(timed); err != nil {
			return err
		}
	}
	end := ms(now())
	t.spans[rp-1].End, t.spans[root-1].End = end, end
	return nil
}

type timedFn func(name string, fn func() error) (float64, error)

func (t *tracer) followerApply() error {
	rec := <-t.sub.C()
	sc, _, _, err := t.follower.ReplicaApply(t.followerSide, rec)
	t.followerSide = sc
	return err
}

func (t *tracer) snapshot(timed timedFn) error {
	_, err := timed("store.snapshot", func() error { return t.st.SaveSnapshot(t.scheme, t.nextID) })
	if err != nil {
		return err
	}
	t.obs("store.snapshot_bytes", float64(dirBytes(t.st.Dir(), "snap-")))
	return nil
}

func (t *tracer) replayDatagram(timed timedFn, epoch uint64, itemBuf []byte) error {
	shardSize := 2 + keysPerDgram*(4+wire.RekeyItemSize)
	nItems := len(itemBuf) / wire.RekeyItemSize
	data := make([][]byte, fecData)
	for j := range data {
		shard := make([]byte, 2, shardSize)
		for it := j * keysPerDgram; it < (j+1)*keysPerDgram && it < nItems; it++ {
			shard = wire.AppendShardEntry(shard, uint32(it), itemBuf[it*wire.RekeyItemSize:(it+1)*wire.RekeyItemSize])
		}
		binary.BigEndian.PutUint16(shard, uint16((len(shard)-2)/(4+wire.RekeyItemSize)))
		data[j] = shard[:shardSize]
	}
	timed("wire.dgram_sign", func() error {
		wire.EncodeShardDgram(t.priv, wire.DgramKeys, 0, epoch, 0, 0, fecData, data[0])
		return nil
	})
	var parity [][]byte
	d, err := timed("fec.encode", func() error {
		var err error
		parity, err = t.coder.Encode(data)
		return err
	})
	if err != nil {
		return err
	}
	t.obs("fec.encode_mb_s", float64(fecData*shardSize)/(1<<20)/(d/1e3))
	// Lose as many source shards as there is parity: the worst block the
	// plane still repairs without a NACK.
	shards := append(append([][]byte(nil), data...), parity...)
	want := shards[1]
	for j := 0; j < fecParity; j++ {
		shards[j] = nil
	}
	if _, err := timed("fec.reconstruct", func() error { return t.coder.Reconstruct(shards) }); err != nil {
		return err
	}
	if string(shards[1]) != string(want) {
		return fmt.Errorf("fec: reconstructed shard differs")
	}
	return nil
}

func (t *tracer) replayCrypto(timed timedFn) error {
	keys := make([]keycrypt.Key, cryptoOps+1)
	for i := range keys {
		k, err := t.gen.New(keycrypt.KeyID(1<<50+i), 1)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	wrapped := make([]keycrypt.WrappedKey, cryptoOps)
	d, err := timed("keycrypt.wrap", func() error {
		for i := range wrapped {
			var err error
			if wrapped[i], err = t.wrapper.Wrap(keys[i+1], keys[i], nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.obs("keycrypt.wrap_ns", d*1e6/cryptoOps)
	d, err = timed("keycrypt.unwrap", func() error {
		for i := range wrapped {
			if _, err := keycrypt.Unwrap(wrapped[i], keys[i]); err != nil {
				return err
			}
		}
		return nil
	})
	t.obs("keycrypt.unwrap_ns", d*1e6/cryptoOps)
	// The wrapper caches one AEAD per wrapping key; these are never reused.
	for i := range keys {
		t.wrapper.Invalidate(keys[i].ID)
	}
	return err
}

// migrations counts the members the batch moved from the S to the L
// partition: receivers of the L stream's joiner items that did not join in
// this batch.
func migrations(r *core.Rekey, b core.Batch) int {
	joined := make(map[keytree.MemberID]bool, len(b.Joins))
	for _, j := range b.Joins {
		joined[j.ID] = true
	}
	moved := map[keytree.MemberID]bool{}
	for _, s := range r.Streams {
		if s.Label != "l-partition" {
			continue
		}
		for _, it := range s.JoinerItems {
			for _, m := range it.Receivers {
				if !joined[m] {
					moved[m] = true
				}
			}
		}
	}
	return len(moved)
}

// add appends a span and returns its ID. end 0 means "patched later".
func (t *tracer) add(parent int, name string, epoch int, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Epoch: epoch, Start: ms(start), End: ms(end)})
	return id
}

// dirBytes sums the sizes of a state directory's files of one kind:
// "wal-" segments or "snap-" snapshots.
func dirBytes(dir, prefix string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if fi, err := ent.Info(); err == nil && strings.HasPrefix(ent.Name(), prefix) {
			n += fi.Size()
		}
	}
	return n
}

// counters reads the server's exported counters the report needs.
func (t *tracer) counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, name := range []string{
		"groupkey_udp_packets_sent_total", "groupkey_udp_parity_sent_total",
		"groupkey_udp_nacks_total", "groupkey_rekey_repair_pulls_total",
	} {
		out[name] = t.e.reg.Counter(name, "").Value()
	}
	return out
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part of it covered by child spans) over the whole trace.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := 0.0
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		at := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// write saves the spans and their per-name self times.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		SelfMs   map[string]float64 `json:"self_ms_total"`
		Spans    []span             `json:"spans"`
	}{t.e.w.name, selfTimes(t.spans), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// report fills in the per-layer metrics.
func (t *tracer) report(res *runResult, eps []*epochResult, m0, m1 runtime.MemStats, goroutines int) error {
	e := t.e
	p50 := func(name, unit, series string) {
		xs := t.series[series]
		res.Metrics[name] = metric{Value: median(xs), Unit: unit, N: len(xs)}
	}
	avg := func(name, unit, series string) {
		xs := t.series[series]
		res.Metrics[name] = metric{Value: mean(xs), Unit: unit, N: len(xs)}
	}
	set := func(name, unit string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: unit, N: n}
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// End of the store's life: one last snapshot, then what recovery costs
	// with and without a WAL tail to replay.
	tail := filepath.Join(t.dir, "tail")
	if err := copyDir(t.st.Dir(), tail); err != nil {
		return err
	}
	// The final snapshot is timed like the periodic ones, outside any epoch span.
	unspanned := func(name string, fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		d := ms(time.Since(start))
		t.obs(name, d)
		return d, err
	}
	if err := t.snapshot(unspanned); err != nil {
		return err
	}
	bare := filepath.Join(t.dir, "bare")
	if err := copyDir(t.st.Dir(), bare); err != nil {
		return err
	}
	_, loadS, err := recoverDir(bare)
	if err != nil {
		return err
	}
	replayed, tailS, err := recoverDir(tail)
	if err != nil {
		return err
	}
	batches := replayed.ReplayedBatches
	set("store.snapshot_load_ms", "ms", loadS*1e3, 1)
	set("store.replay_ms_per_batch", "ms", share((tailS-loadS)*1e3, float64(batches)), batches)

	p50("keycrypt.wrap_ns", "ns", "keycrypt.wrap_ns")
	p50("keycrypt.unwrap_ns", "ns", "keycrypt.unwrap_ns")
	p50("keytree.rekey_ms", "ms", "keytree.rekey")
	p50("keytree.keys_per_s", "1/s", "keytree.keys_per_s")
	p50("keytree.allocs_per_key", "count", "keytree.allocs_per_key")
	p50("keytree.plan_batch_ms", "ms", "keytree.plan_batch")
	planned, greedy := t.treeWraps, t.twinWraps
	if !e.w.tt {
		planned, greedy = greedy, planned
	}
	saved := 0.0
	if greedy > 0 {
		saved = 100 * (1 - planned/greedy)
	}
	set("keytree.planner_wraps_saved_pct", "%", saved, len(t.series["keytree.rekey"]))
	p50("core.process_batch_ms", "ms", "core.process_batch")
	p50("core.self_ms", "ms", "core.self")
	avg("core.migrations_per_epoch", "count", "core.migrations")
	p50("core.empty_batch_ms", "ms", "core.empty_batch")
	p50("store.journal_ms", "ms", "store.journal")
	j := t.series["store.journal"]
	set("store.journal_ms_p90", "ms", quantile(j, 0.9), len(j))
	avg("store.wal_bytes_per_epoch", "B", "store.wal_bytes")
	p50("store.snapshot_ms", "ms", "store.snapshot")
	p50("store.snapshot_bytes", "B", "store.snapshot_bytes")
	p50("store.replica_apply_ms", "ms", "store.replica_apply")
	p50("wire.encode_items_ms", "ms", "wire.encode_items")
	p50("wire.merkle_ms", "ms", "wire.merkle")
	p50("wire.sign_ms", "ms", "wire.sign")
	p50("wire.sparse_index_ms", "ms", "wire.sparse_index")
	p50("wire.full_blob_ms", "ms", "wire.full_blob")
	p50("wire.full_blob_bytes", "B", "wire.full_blob_bytes")
	p50("wire.frame_sizes_ms", "ms", "wire.frame_sizes")
	us := func(name, series string) {
		xs := t.series[series]
		res.Metrics[name] = metric{Value: median(xs) * 1e3, Unit: "us", N: len(xs)}
	}
	us("wire.sparse_frame_us", "wire.sparse_frame")
	us("wire.sparse_verify_us", "wire.sparse_verify")
	us("wire.dgram_sign_us", "wire.dgram_sign")
	p50("fec.encode_mb_s", "MB/s", "fec.encode_mb_s")
	us("fec.reconstruct_us", "fec.reconstruct")

	// server and member: from the live epochs of the traced stretch.
	var tailMsS, bcast, tcp, apply, held, gc []float64
	var sendq int64
	for _, ep := range eps[len(t.offRekey):] {
		tailMsS = append(tailMsS, ep.convergeMs-ep.rekeyMs)
		bcast = append(bcast, ep.broadcastMs)
		gc = append(gc, ms(ep.at.collected-ep.at.start))
		tcp = append(tcp, ep.deliver...)
		apply = append(apply, ep.applyUs...)
		held = append(held, ep.keysHeld...)
		if ep.sendqMax > sendq {
			sendq = ep.sendqMax
		}
	}
	set("server.rekey_ms_p90", "ms", quantile(t.onRekey, 0.9), len(t.onRekey))
	p50("server.self_ms", "ms", "server.self")
	set("server.fanout_tail_ms", "ms", median(tailMsS), len(tailMsS))
	set("server.broadcast_ms", "ms", median(bcast), len(bcast))
	set("server.sendq_depth_max", "count", float64(sendq), len(tailMsS))
	set("server.shed_frames", "count", float64(e.srv.ShedFrames()), 1)
	set("server.slow_evictions", "count", float64(e.srv.SlowEvictions()), 1)
	set("server.joins_deferred", "count", float64(e.srv.JoinsDeferred()), 1)
	set("server.joins_carried", "count", float64(e.joinsCarried), 1)
	now := t.counters()
	delta := func(name string) float64 { return float64(now[name] - t.base[name]) }
	traced := float64(len(t.onRekey))
	packets := delta("groupkey_udp_packets_sent_total")
	set("server.udp_packets_per_epoch", "count", packets/traced, int(traced))
	pairs := traced * float64(len(e.subs))
	set("server.udp_parity_share", "ratio", share(delta("groupkey_udp_parity_sent_total"), packets), int(packets))
	set("server.udp_nack_share", "ratio", share(delta("groupkey_udp_nacks_total"), pairs), int(pairs))
	set("server.tcp_pull_share", "ratio", share(delta("groupkey_rekey_repair_pulls_total"), pairs), int(pairs))
	set("server.tcp_deliver_ms", "ms", median(tcp), len(tcp))
	all := tcp
	if len(e.subs) > 0 {
		all = nil
		for _, ep := range eps[len(t.offRekey):] {
			all = append(all, ep.subDeliver...)
		}
	}
	set("server.deliver_ms_p90", "ms", quantile(all, 0.9), len(all))
	set("server.deliver_ms_p99", "ms", quantile(all, 0.99), len(all))
	set("member.apply_us", "us", median(apply), len(apply))
	set("member.keys_held", "count", mean(held), len(held))

	// Allocation is read over the untraced stretch: later the replay's
	// own garbage is in the same counter.
	off := len(t.offRekey)
	set("runtime.alloc_kb_per_epoch", "KB", share(float64(t.memOff.TotalAlloc-m0.TotalAlloc)/1024, float64(off)), off)
	set("runtime.gc_pause_ms_total", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))
	set("runtime.gc_ms_per_epoch", "ms", median(gc), len(gc))
	set("runtime.goroutines", "count", float64(goroutines), 1)

	// The identity the ledger rests on: the replayed layers should add up
	// to the RekeyNow call they were taken from.
	cover := 100 * share(median(t.series["identity.layers"]), median(t.series["identity.rekey"]))
	set("identity.rekey_cover_pct", "%", cover, len(t.series["identity.rekey"]))
	overhead := 100 * (share(median(t.onRekey), median(t.offRekey)) - 1)
	set("trace_overhead_pct", "%", overhead, len(t.offRekey))
	res.Checks = append(res.Checks, fmt.Sprintf(
		"rekey_ms p50 %.3f = replayed layers %.3f (%.0f%%) + server.self %.3f; converge = rekey + server.fanout_tail %.3f",
		median(t.series["identity.rekey"]), median(t.series["identity.layers"]), cover,
		median(t.series["server.self"]), median(tailMsS)))
	return nil
}
