package transport

import (
	"slices"
	"sort"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// PackOrder selects the order in which keys are assigned to packets
// (Section 2.2.1: WKA packs keys "in a breadth-first or a depth-first
// fashion").
type PackOrder int

const (
	// BreadthFirst packs level by level from the root down, so one packet
	// tends to carry keys many receivers need — high-value packets.
	BreadthFirst PackOrder = iota + 1
	// DepthFirst packs path by path, clustering one subtree's keys into
	// the same packets, so each receiver's keys concentrate in few packets.
	DepthFirst
)

// String implements fmt.Stringer.
func (o PackOrder) String() string {
	switch o {
	case BreadthFirst:
		return "breadth-first"
	case DepthFirst:
		return "depth-first"
	default:
		return "unknown-order"
	}
}

// packet is one multicast rekey packet: a list of item indexes.
type packet struct {
	items []int
}

// interestedUnion returns the receivers that still need at least one item
// of the packet.
func (p packet) interestedUnion(rs *receiverState) []keytree.MemberID {
	var out []keytree.MemberID
	for r, items := range rs.need {
		if slices.ContainsFunc(p.items, func(i int) bool { return items[i] }) {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

// orderItems returns the given item indexes sorted for packing.
func orderItems(items []keytree.Item, idx []int, order PackOrder) []int {
	out := append([]int(nil), idx...)
	switch order {
	case DepthFirst:
		// Cluster by wrapping key: wrapper IDs are allocated in tree
		// insertion order, so nearby subtrees share nearby IDs and one
		// receiver's path keys end up adjacent.
		sort.SliceStable(out, func(a, b int) bool {
			wa, wb := items[out[a]].Wrapped.WrapperID, items[out[b]].Wrapped.WrapperID
			if wa != wb {
				return wa < wb
			}
			return out[a] < out[b]
		})
	default: // BreadthFirst
		sort.SliceStable(out, func(a, b int) bool {
			la, lb := items[out[a]].Level, items[out[b]].Level
			if la != lb {
				return la < lb
			}
			return out[a] < out[b]
		})
	}
	return out
}

// packReplicated deals the given (item, weight) assignments into packets of
// the given capacity such that replicas of one item always land in distinct
// packets (a replica in the same packet is worthless against loss).
//
// It uses round-robin dealing over P = max(maxWeight, ⌈totalSlots/capacity⌉)
// packets: copies of one item occupy consecutive deal positions and hence
// consecutive packets mod P, so distinctness holds whenever weight ≤ P —
// guaranteed by the choice of P. Round-robin also balances load, keeping
// every packet within capacity.
func packReplicated(ordered []int, weight map[int]int, capacity int) []packet {
	maxW, total := 0, 0
	for _, idx := range ordered {
		w := weight[idx]
		if w < 1 {
			w = 1
		}
		if w > maxW {
			maxW = w
		}
		total += w
	}
	if total == 0 {
		return nil
	}
	numPackets := (total + capacity - 1) / capacity
	if numPackets < maxW {
		numPackets = maxW
	}
	packets := make([]packet, numPackets)
	cursor := 0
	for _, idx := range ordered {
		w := weight[idx]
		if w < 1 {
			w = 1
		}
		for c := 0; c < w; c++ {
			packets[cursor%numPackets].items = append(packets[cursor%numPackets].items, idx)
			cursor++
		}
	}
	return packets
}

// deliverReplicated runs the rounds of the replicated-packet protocols
// (MultiSend, WKABKR): each round packs the keys still needed, key i with
// weight(i) replicas in distinct packets, multicasts every packet to the
// receivers still needing any of its keys, and counts one NACK per
// receiver still outstanding from the second round on.
func deliverReplicated(items []keytree.Item, net *netsim.Network, cfg Config, order PackOrder, m *Metrics, weight func(rs *receiverState, i int) int) (Result, error) {
	rs := newReceiverState(items, net)
	var res Result
	defer func() { m.observeResult(res) }()
	for round := 0; round < cfg.MaxRounds && !rs.satisfied(); round++ {
		pending := rs.pendingItems()
		weights := make(map[int]int, len(pending))
		for _, i := range pending {
			weights[i] = weight(rs, i)
		}
		packets := packReplicated(orderItems(items, pending, order), weights, cfg.KeysPerPacket)
		if round > 0 {
			res.NACKs += len(rs.need)
		}
		res.Rounds++
		res.PacketsSent += len(packets)
		sent := 0
		for _, p := range packets {
			sent += len(p.items)
			for r := range net.Multicast(p.interestedUnion(rs)) {
				for _, i := range p.items {
					rs.got(r, i)
				}
			}
		}
		res.KeysSent += sent
		res.KeysPerRound = append(res.KeysPerRound, sent)
	}
	if !rs.satisfied() {
		return res, rs.undelivered(cfg.MaxRounds)
	}
	res.Delivered = true
	return res, nil
}
