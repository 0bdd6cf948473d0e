package transport

import (
	"fmt"
	"maps"
	"slices"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
	"groupkey/internal/wire"
)

// ProactiveFEC is the Yang et al. rekey transport (Section 2.2) on the
// proactive-FEC core that the key server's datagram plane runs
// (feccore.go): the pending keys are packed once into source packets and
// Reed-Solomon blocks, each block is multicast to the receivers that read
// it with parity sized from their losses, and a receiver that cannot read
// a block NACKs it and gets its own repair. Each receiver's loss is a
// LossEstimate kept across deliveries, starting at Config.DefaultLoss.
// Shards are counted, not encoded (a held shard has no payload); the
// datagram plane's tests encode and reconstruct real blocks.
type ProactiveFEC struct {
	Config Config
	// BlockSize is K, the source packets per FEC block.
	BlockSize int
	// Order is the packing order (breadth-first by default).
	Order PackOrder
	// Metrics, when non-nil, receives per-delivery costs and parity
	// overhead.
	Metrics *Metrics

	loss map[keytree.MemberID]*LossEstimate
}

// NewProactiveFEC returns the protocol with blocks of 8 source packets.
func NewProactiveFEC(cfg Config) *ProactiveFEC {
	return &ProactiveFEC{Config: cfg, BlockSize: 8, Order: BreadthFirst}
}

// Name implements Protocol.
func (pf *ProactiveFEC) Name() string { return "proactive-fec" }

// Deliver implements Protocol.
func (pf *ProactiveFEC) Deliver(items []keytree.Item, net *netsim.Network) (Result, error) {
	if err := pf.Config.Validate(); err != nil {
		return Result{}, err
	}
	if pf.BlockSize < 1 || pf.BlockSize > 128 {
		return Result{}, fmt.Errorf("%w: blockSize=%d", ErrBadConfig, pf.BlockSize)
	}
	rs := newReceiverState(items, net)
	if rs.satisfied() {
		return Result{Delivered: true}, nil
	}

	// The core packs ascending indexes: number the pending items in
	// packing order.
	ordered := orderItems(items, rs.pendingItems(), pf.Order)
	rank := make(map[int]uint32, len(ordered))
	for i, idx := range ordered {
		rank[idx] = uint32(i)
	}
	if pf.loss == nil {
		pf.loss = make(map[keytree.MemberID]*LossEstimate)
	}
	maps.DeleteFunc(pf.loss, func(m keytree.MemberID, _ *LossEstimate) bool { return !net.HasReceiver(m) })
	recv := rs.receivers()
	needs := make([][]uint32, len(recv))
	losses := make([]float64, len(recv))
	for r, m := range recv {
		for idx := range rs.need[m] {
			needs[r] = append(needs[r], rank[idx])
		}
		slices.Sort(needs[r])
		est := pf.loss[m]
		if est == nil {
			est = &LossEstimate{}
			est.Report(pf.Config.DefaultLoss)
			pf.loss[m] = est
		}
		losses[r] = est.Plan()
	}
	plan := FECGeometry{KeysPerShard: pf.Config.KeysPerPacket, BlockSize: pf.BlockSize,
		MinParity: DefaultMinParity, MaxParity: DefaultMaxParity}.Plan(needs, losses)
	reads := make([][]wire.NeededBlock, len(recv))
	for r := range recv {
		reads[r] = plan.Reads(r)
	}

	var res Result
	defer func() { pf.Metrics.observeResult(res) }()
	held := make([]map[uint16]map[uint8][]byte, len(recv))
	for r := range held {
		held[r] = make(map[uint16]map[uint8][]byte)
	}
	keys := 0
	// send multicasts shard s of block b to the receivers rx.
	send := func(b uint16, s uint8, rx []int) {
		to := make([]keytree.MemberID, len(rx))
		for i, r := range rx {
			to[i] = recv[r]
		}
		got := net.Multicast(to)
		for i, r := range rx {
			if !got[to[i]] {
				continue
			}
			if held[r][b] == nil {
				held[r][b] = make(map[uint8][]byte)
			}
			held[r][b][s] = nil
		}
		res.PacketsSent++
		keys += pf.Config.KeysPerPacket
		if s >= plan.Blocks[b].K {
			pf.Metrics.addParityKeys(pf.Config.KeysPerPacket)
		}
	}
	for b, blk := range plan.Blocks {
		for s := uint8(0); s < blk.Shards; s++ {
			send(blk.Block, s, plan.Audience[b])
		}
	}
	for round := 1; ; round++ {
		res.Rounds++
		res.KeysSent += keys
		res.KeysPerRound = append(res.KeysPerRound, keys)
		keys = 0
		for r, m := range recv {
			for _, nb := range reads[r] {
				if Complete(nb, held[r][nb.Block]) {
					for _, pos := range nb.Indexes {
						rs.got(m, ordered[plan.Items[pos]])
					}
				}
			}
		}
		if rs.satisfied() {
			res.Delivered = true
			return res, nil
		}
		if round == pf.Config.MaxRounds {
			return res, rs.undelivered(round)
		}
		for r, m := range recv {
			short, loss := Shortfall(reads[r], held[r])
			if len(short) == 0 {
				continue
			}
			res.NACKs++
			pf.loss[m].Report(float64(loss) / 1000)
			for _, sb := range short {
				for _, s := range plan.Repair(r, int(sb.Block), int(sb.Have)) {
					send(sb.Block, s, []int{r})
				}
			}
		}
	}
}
