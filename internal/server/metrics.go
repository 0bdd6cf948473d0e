package server

import (
	"strconv"
	"sync"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/metrics"
	"groupkey/internal/wire"
)

// Metrics bundles every instrument the key server exports. Create one
// with NewMetrics and attach it with (*Server).Instrument before Serve;
// all methods are nil-receiver safe so an uninstrumented server pays only
// a nil check per event.
//
// Under multi-group hosting (Registry), each hosted group gets its own
// bundle via ForGroup: group-labelled series on the same registry, with
// every counter and histogram observation also applied to the aggregate
// (unlabelled) series, so dashboards built against a standalone server
// keep reading totals unchanged.
type Metrics struct {
	reg    *metrics.Registry
	tracer *metrics.RekeyTracer

	// parent is the aggregate bundle a ForGroup view chains into; group is
	// that view's label value. Both are zero on a standalone bundle.
	parent *Metrics
	group  string

	members        *metrics.Gauge
	connections    *metrics.Gauge
	joins          *metrics.Counter
	leaves         *metrics.Counter
	rekeys         *metrics.Counter
	keysEncrypted  *metrics.Counter
	rekeyDuration  *metrics.Histogram
	wrapThroughput *metrics.Histogram
	wrapWorkers    *metrics.Gauge
	broadcastBytes *metrics.Counter
	rejected       *metrics.Counter

	// Overload hardening (see sendq.go).
	sendqDepth    *metrics.Gauge
	sendqWrites   *metrics.Histogram
	sendqShed     *metrics.Counter
	sendqOverflow *metrics.Counter
	slowEvictions *metrics.Counter
	joinsDeferred *metrics.Counter

	// Sparse fan-out and the datagram rekey plane (see epochbuf.go, udp.go).
	sparseBytes    *metrics.Counter
	repairPulls    *metrics.Counter
	udpPackets     *metrics.Counter
	udpParity      *metrics.Counter
	udpNacks       *metrics.Counter
	udpRepair      *metrics.Counter
	udpSubscribers *metrics.Gauge

	// Set-style gauges cannot chain additively: the aggregate is the sum
	// over groups, so each group view remembers its last published value
	// and shifts the parent by the delta.
	gaugeMu         sync.Mutex
	lastMembers     float64
	lastConnections float64
	lastUDPSubs     float64
}

// NewMetrics registers the server's series on reg. tracer may be nil to
// disable rekey tracing.
func NewMetrics(reg *metrics.Registry, tracer *metrics.RekeyTracer) *Metrics {
	return newMetrics(reg, tracer)
}

// ForGroup derives the per-group view of this bundle for hosted group g:
// the same instruments labelled group="<g>", chained so counters and
// histogram observations also land on the aggregate. Safe on nil (returns
// nil); calling it on an already-derived view panics.
func (m *Metrics) ForGroup(g wire.GroupID) *Metrics {
	if m == nil {
		return nil
	}
	if m.parent != nil {
		panic("server: ForGroup on a group-derived Metrics")
	}
	gm := newMetrics(m.reg, m.tracer, metrics.Label{Name: "group", Value: strconv.FormatUint(uint64(g), 10)})
	gm.parent = m
	return gm
}

func newMetrics(reg *metrics.Registry, tracer *metrics.RekeyTracer, labels ...metrics.Label) *Metrics {
	m := &Metrics{
		reg:    reg,
		tracer: tracer,
		members: reg.Gauge("groupkey_members",
			"Current admitted group size.", labels...),
		connections: reg.Gauge("groupkey_connections",
			"Currently connected member transports.", labels...),
		joins: reg.Counter("groupkey_joins_total",
			"Members admitted since start.", labels...),
		leaves: reg.Counter("groupkey_leaves_total",
			"Members departed since start.", labels...),
		rekeys: reg.Counter("groupkey_rekeys_total",
			"Rekey operations performed (batches and rotations).", labels...),
		keysEncrypted: reg.Counter("groupkey_rekey_keys_encrypted_total",
			"Encrypted keys emitted across all rekey payloads.", labels...),
		rekeyDuration: reg.Histogram("groupkey_rekey_duration_seconds",
			"Latency of one rekey: batch processing through broadcast.", nil, labels...),
		wrapThroughput: reg.Histogram("groupkey_rekey_wrap_keys_per_second",
			"Wrap throughput of one rekey: encrypted keys emitted over its duration.",
			metrics.ExponentialBuckets(1024, 2, 16), labels...),
		wrapWorkers: reg.Gauge("groupkey_rekey_wrap_workers",
			"Configured wrap-emission worker count (0 before SetWrapWorkers).", labels...),
		broadcastBytes: reg.Counter("groupkey_broadcast_bytes_total",
			"Bytes written to members for rekey and data broadcasts.", labels...),
		rejected: reg.Counter("groupkey_rejected_registrations_total",
			"Connections rejected during registration.", labels...),
		sendqDepth: reg.Gauge("groupkey_sendq_depth",
			"Frames currently queued across all per-client send queues.", labels...),
		sendqWrites: reg.Histogram("groupkey_sendq_frames_per_write",
			"Frames per vectored write to a client: _count is writes, _sum frames written.",
			metrics.ExponentialBuckets(1, 2, 9), labels...),
		sendqShed: reg.Counter("groupkey_sendq_shed_total",
			"Data frames shed to clients above the high watermark.", labels...),
		sendqOverflow: reg.Counter("groupkey_sendq_overflows_total",
			"Frames dropped because a client's send queue was full.", labels...),
		slowEvictions: reg.Counter("groupkey_slow_evictions_total",
			"Clients evicted after repeatedly overflowing their send queue.", labels...),
		joinsDeferred: reg.Counter("groupkey_joins_deferred_total",
			"Joins deferred with a retry-after response under admission load.", labels...),
		sparseBytes: reg.Counter("groupkey_sparse_frame_bytes_total",
			"Payload bytes of sparse rekey frames accepted for delivery.", labels...),
		repairPulls: reg.Counter("groupkey_rekey_repair_pulls_total",
			"TCP rekey-pull repair requests served.", labels...),
		udpPackets: reg.Counter("groupkey_udp_packets_sent_total",
			"Datagram-plane packets transmitted (source shards).", labels...),
		udpParity: reg.Counter("groupkey_udp_parity_sent_total",
			"Datagram-plane parity shards transmitted (proactive and repair).", labels...),
		udpNacks: reg.Counter("groupkey_udp_nacks_total",
			"NACK feedback datagrams processed from members.", labels...),
		udpRepair: reg.Counter("groupkey_udp_repair_rounds_total",
			"NACK-triggered repair transmissions performed.", labels...),
		udpSubscribers: reg.Gauge("groupkey_udp_subscribers",
			"Members currently subscribed to the datagram rekey plane.", labels...),
	}
	for _, l := range labels {
		if l.Name == "group" {
			m.group = l.Value
		}
	}
	return m
}

// addSendqDepth shifts the send-queue depth gauge (depth is additive, so
// a group view chains the same delta into the aggregate).
func (m *Metrics) addSendqDepth(delta float64) {
	if m == nil {
		return
	}
	m.sendqDepth.Add(delta)
	if m.parent != nil {
		m.parent.sendqDepth.Add(delta)
	}
}

// noteWrite records one vectored write of frames frames to a client.
func (m *Metrics) noteWrite(frames int) {
	for b := m; b != nil; b = b.parent {
		b.sendqWrites.Observe(float64(frames))
	}
}

// noteShed records one data frame shed to a congested client.
func (m *Metrics) noteShed() {
	if m == nil {
		return
	}
	m.sendqShed.Inc()
	if m.parent != nil {
		m.parent.sendqShed.Inc()
	}
}

// noteOverflow records one frame dropped on a full send queue.
func (m *Metrics) noteOverflow() {
	if m == nil {
		return
	}
	m.sendqOverflow.Inc()
	if m.parent != nil {
		m.parent.sendqOverflow.Inc()
	}
}

// noteSlowEviction records one slow-client eviction.
func (m *Metrics) noteSlowEviction() {
	if m == nil {
		return
	}
	m.slowEvictions.Inc()
	if m.parent != nil {
		m.parent.slowEvictions.Inc()
	}
}

// noteJoinDeferred records one join deferred with MsgRetry.
func (m *Metrics) noteJoinDeferred() {
	if m == nil {
		return
	}
	m.joinsDeferred.Inc()
	if m.parent != nil {
		m.parent.joinsDeferred.Inc()
	}
}

// noteSparseBytes records the payload bytes of one sparse frame accepted
// for delivery.
func (m *Metrics) noteSparseBytes(n int) {
	if m == nil {
		return
	}
	m.sparseBytes.Add(uint64(n))
	if m.parent != nil {
		m.parent.sparseBytes.Add(uint64(n))
	}
}

// noteRepairPull records one TCP rekey-pull repair request.
func (m *Metrics) noteRepairPull() {
	if m == nil {
		return
	}
	m.repairPulls.Inc()
	if m.parent != nil {
		m.parent.repairPulls.Inc()
	}
}

// noteUDP records one epoch's datagram-plane transmission costs plus any
// NACK/repair activity since the last call.
func (m *Metrics) noteUDP(packets, parity, nacks, repairs int) {
	if m == nil {
		return
	}
	for b := m; b != nil; b = b.parent {
		b.udpPackets.Add(uint64(packets))
		b.udpParity.Add(uint64(parity))
		b.udpNacks.Add(uint64(nacks))
		b.udpRepair.Add(uint64(repairs))
	}
}

// setUDPSubscribers publishes the datagram-plane subscriber count,
// delta-chained into the aggregate like setMembers.
func (m *Metrics) setUDPSubscribers(n int) {
	if m == nil {
		return
	}
	m.udpSubscribers.Set(float64(n))
	if m.parent == nil {
		return
	}
	m.gaugeMu.Lock()
	delta := float64(n) - m.lastUDPSubs
	m.lastUDPSubs = float64(n)
	m.gaugeMu.Unlock()
	m.parent.udpSubscribers.Add(delta)
}

// noteFrame counts one client→server frame by message type. The series is
// registered lazily because the type vocabulary is data-driven; a group
// view emits both the {type,group} and aggregate {type} series. MsgType
// names are locked to the protocol's type list by the wire package's
// exhaustiveness test, so label values cannot silently drift.
func (m *Metrics) noteFrame(t wire.MsgType) {
	if m == nil {
		return
	}
	const name = "groupkey_frames_received_total"
	const help = "Frames received from clients by message type."
	if m.group != "" {
		m.reg.Counter(name, help,
			metrics.Label{Name: "type", Value: t.String()},
			metrics.Label{Name: "group", Value: m.group}).Inc()
	}
	agg := m
	if m.parent != nil {
		agg = m.parent
	}
	if agg.group == "" {
		agg.reg.Counter(name, help, metrics.Label{Name: "type", Value: t.String()}).Inc()
	}
}

// setMembers publishes the admitted group size. A group view sets its own
// labelled gauge and shifts the aggregate by the delta since its last
// publication, keeping the unlabelled gauge equal to the sum over groups.
func (m *Metrics) setMembers(n float64) {
	m.members.Set(n)
	if m.parent == nil {
		return
	}
	m.gaugeMu.Lock()
	delta := n - m.lastMembers
	m.lastMembers = n
	m.gaugeMu.Unlock()
	m.parent.members.Add(delta)
}

// noteRekey records one completed rekey: counters, latency, partition
// gauges and a trace event. A group view also rolls counters and
// observations into the aggregate; the trace event is recorded once, on
// the bundle the rekey actually ran in, carrying the group label.
func (m *Metrics) noteRekey(scheme core.Scheme, r *core.Rekey, joins, leaves, bytes int, d time.Duration, now time.Time) {
	if m == nil {
		return
	}
	keys := r.TotalKeyCount()
	for b := m; b != nil; b = b.parent {
		b.rekeys.Inc()
		b.joins.Add(uint64(joins))
		b.leaves.Add(uint64(leaves))
		b.keysEncrypted.Add(uint64(keys))
		b.rekeyDuration.Observe(d.Seconds())
		if keys > 0 && d > 0 {
			b.wrapThroughput.Observe(float64(keys) / d.Seconds())
		}
		b.broadcastBytes.Add(uint64(bytes))
	}
	st := scheme.Stats()
	m.setMembers(float64(scheme.Size()))
	// Partition gauges stay on the owning bundle: per-group label when
	// hosted, bare when standalone — partition labels are scheme-internal
	// and do not sum meaningfully across groups.
	partLabels := []metrics.Label{{Name: "partition", Value: ""}}
	if m.group != "" {
		partLabels = append(partLabels, metrics.Label{Name: "group", Value: m.group})
	}
	for _, p := range st.Partitions {
		partLabels[0].Value = p.Label
		m.reg.Gauge("groupkey_partition_members",
			"Current members per scheme partition.", partLabels...).Set(float64(p.Size))
	}
	// Planner gauges are registered lazily, only when the scheme actually
	// runs the batch placement planner; like the partition gauges they stay
	// on the owning bundle.
	if st.Planner.Enabled {
		var plLabels []metrics.Label
		if m.group != "" {
			plLabels = append(plLabels, metrics.Label{Name: "group", Value: m.group})
		}
		m.reg.Gauge("groupkey_planner_batches_planned_total",
			"Batches where a non-greedy placement plan won.", plLabels...).
			Set(float64(st.Planner.PlannedBatches))
		m.reg.Gauge("groupkey_planner_greedy_fallbacks_total",
			"Batches the planner evaluated but kept the greedy plan.", plLabels...).
			Set(float64(st.Planner.GreedyFallbacks))
		m.reg.Gauge("groupkey_planner_saved_wraps_total",
			"Simulated multicast wraps saved versus the greedy baseline.", plLabels...).
			Set(float64(st.Planner.SavedWraps))
	}
	if m.tracer != nil {
		m.tracer.Record(metrics.RekeyEvent{
			Time:            now,
			Group:           m.group,
			Scheme:          scheme.Name(),
			Epoch:           r.Epoch,
			Joins:           joins,
			Leaves:          leaves,
			Members:         scheme.Size(),
			KeysEncrypted:   keys,
			Bytes:           bytes,
			DurationSeconds: d.Seconds(),
		})
	}
}

// SetWrapWorkers publishes the rekey engine's configured wrap-emission
// worker count (as resolved by the scheme: 0 means GOMAXPROCS). A
// configuration value, not a flow — group views publish their own series
// without touching the aggregate.
func (m *Metrics) SetWrapWorkers(n int) {
	if m == nil {
		return
	}
	m.wrapWorkers.Set(float64(n))
}

// noteBroadcast records the bytes of one data broadcast.
func (m *Metrics) noteBroadcast(bytes int) {
	if m == nil {
		return
	}
	m.broadcastBytes.Add(uint64(bytes))
	if m.parent != nil {
		m.parent.broadcastBytes.Add(uint64(bytes))
	}
}

// noteRejected records one rejected registration.
func (m *Metrics) noteRejected() {
	if m == nil {
		return
	}
	m.rejected.Inc()
	if m.parent != nil {
		m.parent.rejected.Inc()
	}
}

// setConnections mirrors the connection-table size, delta-chained into
// the aggregate like setMembers.
func (m *Metrics) setConnections(n int) {
	if m == nil {
		return
	}
	m.connections.Set(float64(n))
	if m.parent == nil {
		return
	}
	m.gaugeMu.Lock()
	delta := float64(n) - m.lastConnections
	m.lastConnections = float64(n)
	m.gaugeMu.Unlock()
	m.parent.connections.Add(delta)
}

// Instrument attaches the metrics bundle; call before Serve. Passing nil
// detaches.
func (s *Server) Instrument(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
}

// TotalRekeys reports how many rekey operations (batches and rotations)
// the server has performed.
func (s *Server) TotalRekeys() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalRekeys
}

// PeakMembers reports the largest admitted group size seen.
func (s *Server) PeakMembers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakMembers
}
