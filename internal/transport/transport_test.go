package transport

import (
	"errors"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
	"groupkey/internal/wire"
)

// buildPayload populates a deterministic tree of n members (degree d),
// processes a batch with the given leavers, and returns the multicast items,
// their receiver lists derived for the whole group, plus the surviving
// member IDs.
func buildPayload(t *testing.T, seed uint64, d, n int, leavers []keytree.MemberID) ([]keytree.Item, []keytree.MemberID) {
	t.Helper()
	tr, err := keytree.New(d, keytree.WithRand(keycrypt.NewDeterministicReader(seed)))
	if err != nil {
		t.Fatalf("keytree.New: %v", err)
	}
	b := keytree.Batch{}
	for i := 1; i <= n; i++ {
		b.Joins = append(b.Joins, keytree.MemberID(i))
	}
	if _, err := tr.Rekey(b); err != nil {
		t.Fatalf("populate: %v", err)
	}
	p, err := tr.Rekey(keytree.Batch{Leaves: leavers})
	if err != nil {
		t.Fatalf("departure rekey: %v", err)
	}
	return wire.Addressed(p.Items, tr.Members(), tr.PathIDs), tr.Members()
}

// lossNetwork registers members with the given uniform loss rate.
func lossNetwork(t *testing.T, seed uint64, members []keytree.MemberID, p float64) *netsim.Network {
	t.Helper()
	net := netsim.New(seed)
	for _, m := range members {
		if err := net.AddReceiver(m, netsim.Bernoulli{P: p}); err != nil {
			t.Fatalf("AddReceiver: %v", err)
		}
	}
	return net
}

func TestWKABKRLosslessSingleRound(t *testing.T) {
	items, members := buildPayload(t, 1, 4, 64, []keytree.MemberID{7})
	net := lossNetwork(t, 1, members, 0)
	cfg := DefaultConfig()
	cfg.DefaultLoss = 0 // the server knows the network is clean
	proto := NewWKABKR(cfg)
	res, err := proto.Deliver(items, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.Delivered {
		t.Fatal("not delivered")
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds=%d, want 1 on a lossless network", res.Rounds)
	}
	if res.KeysSent != len(items) {
		t.Errorf("KeysSent=%d, want exactly %d (no replication needed)", res.KeysSent, len(items))
	}
}

func TestWKABKRLossyDelivers(t *testing.T) {
	items, members := buildPayload(t, 2, 4, 256, []keytree.MemberID{3, 99, 200})
	cfg := DefaultConfig()
	cfg.LossEstimate = func(keytree.MemberID) float64 { return 0.2 }
	net := lossNetwork(t, 2, members, 0.2)
	proto := NewWKABKR(cfg)
	res, err := proto.Deliver(items, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.Delivered {
		t.Fatal("not delivered")
	}
	if res.KeysSent <= len(items) {
		t.Errorf("KeysSent=%d should exceed item count %d under 20%% loss", res.KeysSent, len(items))
	}
	if res.Rounds < 1 || res.Rounds > 20 {
		t.Errorf("Rounds=%d implausible", res.Rounds)
	}
	// Sanity: per-round accounting adds up.
	sum := 0
	for _, k := range res.KeysPerRound {
		sum += k
	}
	if sum != res.KeysSent {
		t.Errorf("KeysPerRound sums to %d, KeysSent=%d", sum, res.KeysSent)
	}
}

func TestWKABKRWeightsScaleWithReceivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossEstimate = func(keytree.MemberID) float64 { return 0.2 }
	proto := NewWKABKR(cfg)
	few := proto.expectedTransmissions([]keytree.MemberID{1, 2}, nil)
	var big []keytree.MemberID
	for i := 1; i <= 4096; i++ {
		big = append(big, keytree.MemberID(i))
	}
	many := proto.expectedTransmissions(big, nil)
	if many <= few {
		t.Fatalf("E[M] for 4096 receivers (%v) should exceed E[M] for 2 (%v)", many, few)
	}
	if none := proto.expectedTransmissions(nil, nil); none != 0 {
		t.Fatalf("E[M] with no receivers = %v, want 0", none)
	}
}

func TestWKABKRSkipsDepartedReceivers(t *testing.T) {
	items, members := buildPayload(t, 3, 4, 64, []keytree.MemberID{5})
	// Register only half the survivors: the rest are "gone" and must not
	// block delivery.
	net := lossNetwork(t, 3, members[:len(members)/2], 0)
	proto := NewWKABKR(DefaultConfig())
	res, err := proto.Deliver(items, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.Delivered {
		t.Fatal("not delivered")
	}
}

func TestWKABKREmptyPayload(t *testing.T) {
	net := netsim.New(4)
	proto := NewWKABKR(DefaultConfig())
	res, err := proto.Deliver(nil, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.Delivered || res.KeysSent != 0 || res.Rounds != 0 {
		t.Fatalf("empty payload result %+v", res)
	}
}

func TestWKABKRConfigValidation(t *testing.T) {
	items, members := buildPayload(t, 5, 4, 16, []keytree.MemberID{1})
	net := lossNetwork(t, 5, members, 0)
	bad := DefaultConfig()
	bad.KeysPerPacket = 0
	if _, err := NewWKABKR(bad).Deliver(items, net); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err=%v, want ErrBadConfig", err)
	}
}

func TestMultiSendLosslessReplication(t *testing.T) {
	items, members := buildPayload(t, 6, 4, 64, []keytree.MemberID{9})
	net := lossNetwork(t, 6, members, 0)
	proto := NewMultiSend(DefaultConfig(), 2)
	res, err := proto.Deliver(items, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.Delivered || res.Rounds != 1 {
		t.Fatalf("result %+v, want 1 lossless round", res)
	}
	// Uniform replication 2 with capacity 25 and >25 items: replicas land
	// in distinct packets, so all copies are transmitted.
	if res.KeysSent != 2*len(items) {
		t.Errorf("KeysSent=%d, want %d (every key twice)", res.KeysSent, 2*len(items))
	}
}

func TestMultiSendInvalidReplication(t *testing.T) {
	items, members := buildPayload(t, 7, 4, 16, []keytree.MemberID{2})
	net := lossNetwork(t, 7, members, 0)
	if _, err := NewMultiSend(DefaultConfig(), 0).Deliver(items, net); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err=%v, want ErrBadConfig", err)
	}
}

func TestWKABKRBeatsMultiSendUnderLowLoss(t *testing.T) {
	// The paper: WKA-BKR "is shown to have a lower bandwidth overhead than
	// the other two in most loss scenarios". With 2% loss, blanket 2×
	// replication wastes bandwidth that WKA avoids.
	leavers := []keytree.MemberID{10, 20, 30, 40}
	run := func(build func() Protocol) int {
		items, members := buildPayload(t, 8, 4, 512, leavers)
		cfg := DefaultConfig()
		cfg.LossEstimate = func(keytree.MemberID) float64 { return 0.02 }
		net := lossNetwork(t, 8, members, 0.02)
		res, err := build().Deliver(items, net)
		if err != nil {
			t.Fatalf("Deliver: %v", err)
		}
		return res.KeysSent
	}
	cfg := DefaultConfig()
	cfg.LossEstimate = func(keytree.MemberID) float64 { return 0.02 }
	wka := run(func() Protocol { return NewWKABKR(cfg) })
	msnd := run(func() Protocol { return NewMultiSend(cfg, 2) })
	if wka >= msnd {
		t.Fatalf("WKA-BKR (%d keys) should beat MultiSend×2 (%d keys) at 2%% loss", wka, msnd)
	}
}

func TestProactiveFECLossless(t *testing.T) {
	items, members := buildPayload(t, 9, 4, 256, []keytree.MemberID{17, 80})
	net := lossNetwork(t, 9, members, 0)
	proto := NewProactiveFEC(DefaultConfig())
	res, err := proto.Deliver(items, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.Delivered || res.Rounds != 1 {
		t.Fatalf("result %+v, want 1 lossless round", res)
	}
	// Proactive parity means more than the bare minimum is sent even when
	// nothing is lost.
	if res.KeysSent <= len(items) {
		t.Errorf("KeysSent=%d, want > %d (proactive parity)", res.KeysSent, len(items))
	}
}

func TestProactiveFECLossyDelivers(t *testing.T) {
	items, members := buildPayload(t, 10, 4, 256, []keytree.MemberID{5, 100, 250})
	net := lossNetwork(t, 10, members, 0.2)
	proto := NewProactiveFEC(DefaultConfig())
	res, err := proto.Deliver(items, net)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !res.Delivered {
		t.Fatal("not delivered")
	}
	if res.Rounds < 2 {
		t.Errorf("Rounds=%d, expected retransmission rounds at 20%% loss", res.Rounds)
	}
}

func TestProactiveFECValidation(t *testing.T) {
	items, members := buildPayload(t, 11, 4, 16, []keytree.MemberID{3})
	net := lossNetwork(t, 11, members, 0)
	p := NewProactiveFEC(DefaultConfig())
	p.BlockSize = 0
	if _, err := p.Deliver(items, net); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("blockSize=0: err=%v, want ErrBadConfig", err)
	}
}

func TestPackingOrdersBothDeliver(t *testing.T) {
	items, members := buildPayload(t, 12, 4, 256, []keytree.MemberID{42})
	for _, order := range []PackOrder{BreadthFirst, DepthFirst} {
		cfg := DefaultConfig()
		cfg.LossEstimate = func(keytree.MemberID) float64 { return 0.1 }
		net := lossNetwork(t, 12, members, 0.1)
		proto := NewWKABKR(cfg)
		proto.Order = order
		res, err := proto.Deliver(items, net)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if !res.Delivered {
			t.Fatalf("order %v: not delivered", order)
		}
	}
}

func TestPackReplicatedDistinctPackets(t *testing.T) {
	// Replicas of one item must never share a packet.
	ordered := []int{0, 1, 2, 3, 4}
	weights := map[int]int{0: 3, 1: 1, 2: 2, 3: 1, 4: 3}
	packets := packReplicated(ordered, weights, 4)
	total := 0
	for _, p := range packets {
		seen := make(map[int]bool)
		for _, idx := range p.items {
			if seen[idx] {
				t.Fatalf("packet carries duplicate item %d", idx)
			}
			seen[idx] = true
		}
		total += len(p.items)
	}
	want := 3 + 1 + 2 + 1 + 3
	if total != want {
		t.Fatalf("packed %d key slots, want %d", total, want)
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() Result {
		items, members := buildPayload(t, 13, 4, 128, []keytree.MemberID{8, 64})
		net := lossNetwork(t, 13, members, 0.1)
		cfg := DefaultConfig()
		cfg.LossEstimate = func(keytree.MemberID) float64 { return 0.1 }
		res, err := NewWKABKR(cfg).Deliver(items, net)
		if err != nil {
			t.Fatalf("Deliver: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.KeysSent != b.KeysSent || a.Rounds != b.Rounds || a.PacketsSent != b.PacketsSent {
		t.Fatalf("same seeds, different results: %+v vs %+v", a, b)
	}
}

func TestNACKAccounting(t *testing.T) {
	items, members := buildPayload(t, 60, 4, 256, []keytree.MemberID{8, 90})
	// Lossless: nobody NACKs.
	cleanNet := lossNetwork(t, 60, members, 0)
	cfg := DefaultConfig()
	cfg.DefaultLoss = 0
	res, err := NewWKABKR(cfg).Deliver(items, cleanNet)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if res.NACKs != 0 {
		t.Fatalf("lossless run produced %d NACKs", res.NACKs)
	}
	// Lossy: retransmission rounds imply NACK feedback.
	lossyNet := lossNetwork(t, 61, members, 0.2)
	res, err = NewWKABKR(DefaultConfig()).Deliver(items, lossyNet)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if res.Rounds > 1 && res.NACKs == 0 {
		t.Fatalf("%d rounds but no NACKs recorded", res.Rounds)
	}
}
