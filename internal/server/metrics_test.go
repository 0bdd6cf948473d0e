package server

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/metrics"
	"groupkey/internal/wire"
)

// scrape fetches the Prometheus exposition from a metrics handler.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(body)
}

// sample extracts the value of one series line ("name{labels} value") from
// an exposition body.
func sample(t *testing.T, body, series string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("series %q absent from exposition:\n%s", series, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q: bad value %q: %v", series, m[1], err)
	}
	return v
}

// TestServerMetricsEndToEnd drives a join/leave/rekey cycle against an
// instrumented TT server and asserts every ISSUE-required series through an
// actual HTTP scrape.
func TestServerMetricsEndToEnd(t *testing.T) {
	scheme, err := core.NewTwoPartition(core.TT, 2, core.WithRand(keycrypt.NewDeterministicReader(31)))
	if err != nil {
		t.Fatalf("NewTwoPartition: %v", err)
	}
	reg := metrics.NewRegistry()
	tracer := metrics.NewRekeyTracer(16)
	m := NewMetrics(reg, tracer)

	srv := startServer(t, scheme)
	srv.Instrument(m)
	m.SetWrapWorkers(runtime.GOMAXPROCS(0))
	ts := httptest.NewServer(metrics.Handler(reg, tracer))
	defer ts.Close()

	// Two joins (each dial triggers one rekey), then a leave-driven rekey.
	alice := dial(t, srv, wire.JoinRequest{})
	bob := dial(t, srv, wire.JoinRequest{})
	if err := bob.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow after leave: %v", err)
	}
	if err := alice.WaitEpoch(3, testTimeout); err != nil {
		t.Fatalf("WaitEpoch: %v", err)
	}
	if err := srv.Broadcast([]byte("app payload")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	// A write is observed before its frames leave the depth count.
	waitFor(t, "send queues drained", func() bool { return srv.QueuedFrames() == 0 })

	body := scrape(t, ts)

	if got := sample(t, body, "groupkey_members"); got != 1 {
		t.Errorf("groupkey_members=%v, want 1 (alice only)", got)
	}
	if got := sample(t, body, "groupkey_rekeys_total"); got != 3 {
		t.Errorf("groupkey_rekeys_total=%v, want 3", got)
	}
	if got := sample(t, body, "groupkey_joins_total"); got != 2 {
		t.Errorf("groupkey_joins_total=%v, want 2", got)
	}
	if got := sample(t, body, "groupkey_leaves_total"); got != 1 {
		t.Errorf("groupkey_leaves_total=%v, want 1", got)
	}
	if got := sample(t, body, "groupkey_rekey_keys_encrypted_total"); got <= 0 {
		t.Errorf("groupkey_rekey_keys_encrypted_total=%v, want > 0", got)
	}
	if got := sample(t, body, "groupkey_rekey_duration_seconds_count"); got != 3 {
		t.Errorf("groupkey_rekey_duration_seconds_count=%v, want 3", got)
	}
	if got := sample(t, body, "groupkey_broadcast_bytes_total"); got <= 0 {
		t.Errorf("groupkey_broadcast_bytes_total=%v, want > 0", got)
	}
	if got := sample(t, body, "groupkey_rekey_wrap_keys_per_second_count"); got != 3 {
		t.Errorf("groupkey_rekey_wrap_keys_per_second_count=%v, want 3", got)
	}
	if got := sample(t, body, "groupkey_rekey_wrap_workers"); got != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("groupkey_rekey_wrap_workers=%v, want %d", got, runtime.GOMAXPROCS(0))
	}
	// Eight frames were written: a welcome each, alice's three rekeys and the
	// broadcast, bob's two (his admission and his leave's). How many writes
	// carried them depends on when each writer woke.
	writes := sample(t, body, "groupkey_sendq_frames_per_write_count")
	if frames := sample(t, body, "groupkey_sendq_frames_per_write_sum"); frames != 8 || writes < 2 || writes > frames {
		t.Errorf("groupkey_sendq_frames_per_write count=%v sum=%v, want sum 8 over 2..8 writes", writes, frames)
	}
	// TT scheme exposes its S and L partitions; together they hold alice.
	s := sample(t, body, `groupkey_partition_members{partition="s"}`)
	l := sample(t, body, `groupkey_partition_members{partition="l"}`)
	if s+l != 1 {
		t.Errorf("partition gauges s=%v l=%v, want sum 1", s, l)
	}

	// The tracer saw every rekey, newest last.
	resp, err := http.Get(ts.URL + "/rekeys.json")
	if err != nil {
		t.Fatalf("GET /rekeys.json: %v", err)
	}
	defer resp.Body.Close()
	var events []metrics.RekeyEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("decode rekey trace: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("trace has %d events, want 3", len(events))
	}
	last := events[len(events)-1]
	if last.Scheme != scheme.Name() {
		t.Errorf("trace scheme=%q, want %q", last.Scheme, scheme.Name())
	}
	if last.Leaves != 1 {
		t.Errorf("last trace event leaves=%d, want 1", last.Leaves)
	}
	if last.Members != 1 {
		t.Errorf("last trace event members=%d, want 1", last.Members)
	}
	if last.Seq != 3 {
		t.Errorf("last trace event seq=%d, want 3", last.Seq)
	}

	// Server-side roll-ups used by the shutdown summary.
	if got := srv.TotalRekeys(); got != 3 {
		t.Errorf("TotalRekeys=%d, want 3", got)
	}
	if got := srv.PeakMembers(); got != 2 {
		t.Errorf("PeakMembers=%d, want 2", got)
	}
}

// TestUninstrumentedServer confirms the nil-metrics fast path: a bare
// server runs the same cycle with no registry attached.
func TestUninstrumentedServer(t *testing.T) {
	srv := startServer(t, newScheme(t, 41))
	c := dial(t, srv, wire.JoinRequest{})
	if err := c.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	if got := srv.TotalRekeys(); got != 2 {
		t.Errorf("TotalRekeys=%d, want 2", got)
	}
}

// TestRejectedRegistrationMetric asserts the rejected-registration counter
// moves when a connection fails protocol registration.
func TestRejectedRegistrationMetric(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg, nil)
	srv := startServer(t, newScheme(t, 43))
	srv.Instrument(m)

	// A raw connection that opens with a message type no client may send.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := wire.WriteFrame(conn, wire.MsgError, []byte("rogue")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	defer conn.Close()

	deadline := time.Now().Add(testTimeout)
	for time.Now().Before(deadline) {
		if m.rejected.Value() >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rejected counter=%d, want >= 1", m.rejected.Value())
}
