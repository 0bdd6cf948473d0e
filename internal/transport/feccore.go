package transport

import (
	"math"
	"slices"

	"groupkey/internal/wire"
)

// The proactive-FEC core: one epoch's block geometry, parity, completion
// rule, repair rule and loss estimate, with no sockets, clocks or
// goroutines. ProactiveFEC runs it on the simulated network, the key
// server's datagram plane on UDP.

// DefaultMinParity and DefaultMaxParity clamp a block's proactive parity.
const (
	DefaultMinParity = 1
	DefaultMaxParity = 8
)

// FECGeometry sizes an epoch's shards and blocks: at most KeysPerShard
// items per source shard, BlockSize source shards per block (the last may
// hold fewer), parity clamped to [MinParity, MaxParity]. Fits, when set,
// reports whether an epoch of packets with kpd items per source shard
// fits the transport; Plan lowers kpd until it does, or down to 1.
type FECGeometry struct {
	KeysPerShard, BlockSize, MinParity, MaxParity int
	Fits                                          func(kpd, packets int) bool
}

// FECPlan is one epoch's geometry. Item Items[p] sits at position p;
// source shard j, counted across blocks, carries positions [j·KPD,
// (j+1)·KPD). Positions[r] lists receiver r's positions and Audience[b]
// the receivers that read block b, never none, both ascending.
type FECPlan struct {
	KPD       int
	Items     []uint32
	Positions [][]uint32
	Blocks    []wire.DigestBlock
	Audience  [][]int
	cursor    map[[2]int]int // per (receiver, block): the next repair shard
}

// Plan packs the union of the receivers' ascending item indexes needs[r]
// in ascending order, so every block has an audience, and gives each
// block the parity its audience's loss estimates (losses[r]) call for.
func (g FECGeometry) Plan(needs [][]uint32, losses []float64) *FECPlan {
	p := &FECPlan{Positions: make([][]uint32, len(needs)), cursor: make(map[[2]int]int)}
	for _, n := range needs {
		p.Items = append(p.Items, n...)
	}
	slices.Sort(p.Items)
	p.Items = slices.Compact(p.Items)
	for r, n := range needs {
		for _, it := range n {
			pos, _ := slices.BinarySearch(p.Items, it)
			p.Positions[r] = append(p.Positions[r], uint32(pos))
		}
	}
	if len(p.Items) == 0 {
		return p
	}
	var heard []float64
	for p.KPD = g.KeysPerShard; ; p.KPD-- {
		p.Blocks = p.Blocks[:0]
		nShards := (len(p.Items) + p.KPD - 1) / p.KPD
		for b, off := 0, 0; off < nShards; b++ {
			k := min(g.BlockSize, nShards-off)
			p.Blocks = append(p.Blocks, wire.DigestBlock{Block: uint16(b), K: uint8(k)})
			off += k
		}
		p.Audience = make([][]int, len(p.Blocks))
		for r, pos := range p.Positions {
			for _, nb := range wire.NeededBlocks(pos, p.KPD, p.Blocks) {
				p.Audience[nb.Block] = append(p.Audience[nb.Block], r)
			}
		}
		packets := 0
		for b := range p.Blocks {
			heard = heard[:0]
			for _, r := range p.Audience[b] {
				heard = append(heard, losses[r])
			}
			k := int(p.Blocks[b].K)
			parity := min(ProactiveParity(k, heard, g.MinParity, g.MaxParity), math.MaxUint8-k)
			p.Blocks[b].Shards = uint8(k + parity)
			packets += k + parity
		}
		if p.KPD == 1 || g.Fits == nil || g.Fits(p.KPD, packets) {
			return p
		}
	}
}

// Reads lists the blocks receiver r reads.
func (p *FECPlan) Reads(r int) []wire.NeededBlock {
	return wire.NeededBlocks(p.Positions[r], p.KPD, p.Blocks)
}

// Repair answers receiver r's report that it holds have of block b's
// shards: deficit+1 shards (deficit = K − have) from the (receiver, block)
// cursor, which moves on, so successive repairs walk every shard. Only
// shards already sent are resent: the plane signs an epoch's packets once.
func (p *FECPlan) Repair(r, b, have int) []uint8 {
	blk := p.Blocks[b]
	deficit, n := int(blk.K)-have, int(blk.Shards)
	if deficit <= 0 {
		return nil
	}
	cur := p.cursor[[2]int{r, b}]
	out := make([]uint8, 0, min(deficit+1, n))
	for i := 0; i <= deficit && i < n; i++ {
		out = append(out, uint8((cur+i)%n))
	}
	p.cursor[[2]int{r, b}] = (cur + deficit + 1) % n
	return out
}

// Complete reports whether a receiver holding the shards held of block nb
// can read its items there: it holds every source shard carrying them, or
// any K shards to reconstruct the block from.
func Complete(nb wire.NeededBlock, held map[uint8][]byte) bool {
	if len(held) >= int(nb.K) {
		return true
	}
	for _, s := range nb.Sources {
		if _, ok := held[s]; !ok {
			return false
		}
	}
	return true
}

// Shortfall returns the blocks of need a receiver holding held[block]
// cannot read yet, each with the count of shards it holds (its NACK), and
// the share in permille of the packets of need, the only ones sent to it,
// that it lacks.
func Shortfall(need []wire.NeededBlock, held map[uint16]map[uint8][]byte) (short []wire.NackBlock, lossPermille uint16) {
	got, sent := 0, 0
	for _, nb := range need {
		got += len(held[nb.Block])
		sent += int(nb.Shards)
		if !Complete(nb, held[nb.Block]) {
			short = append(short, wire.NackBlock{Block: nb.Block, Have: uint8(len(held[nb.Block]))})
		}
	}
	if sent > 0 && got < sent {
		lossPermille = uint16((sent - got) * 1000 / sent)
	}
	return short, lossPermille
}

// LossEstimate is the sender's view of one receiver's loss rate: a NACK's
// report sets it (Report), and each epoch planned without a NACK since the
// last plan halves it (Plan), so parity follows a receiver back down after
// a bad epoch.
type LossEstimate struct {
	rate  float64
	heard bool
}

// Report sets the estimate to the rate a NACK reports.
func (l *LossEstimate) Report(rate float64) { l.rate, l.heard = rate, true }

// Rate returns the estimate.
func (l *LossEstimate) Rate() float64 { return l.rate }

// Plan returns the estimate for an epoch being planned.
func (l *LossEstimate) Plan() float64 {
	if !l.heard {
		l.rate /= 2
	}
	l.heard = false
	return l.rate
}

// ProactiveParity sizes the proactive parity for one FEC block of k source
// shards from the receivers' loss rates, adapting WKA's replication weight
// to coding: E[M] copies of every packet under replication becomes
// k·(E[M] − 1) parity shards under RS coding (any k of the k+h shards
// reconstruct, so parity substitutes one-for-one for replicas). The result
// is clamped to [lo, hi].
func ProactiveParity(k int, losses []float64, lo, hi int) int {
	if k < 1 || hi < lo {
		return lo
	}
	h := 0
	if em := ExpectedTransmissions(losses); em > 1 {
		h = int(math.Ceil(float64(k) * (em - 1)))
	}
	return min(max(h, lo), hi)
}
