package transport

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"groupkey/internal/wire"
)

// fitsMTU is the datagram plane's fit predicate: an epoch's packets, each
// with its authentication path, fit one wire.DgramMTU.
func fitsMTU(kpd, packets int) bool {
	return wire.ShardDgramSize(wire.ShardSize(kpd), packets) <= wire.DgramMTU
}

// TestFECPlanGeometry: over receivers that read sparse, overlapping item
// sets, the plan packs exactly their union, ascending; each receiver's
// positions are ascending and name its own items; every block has an
// audience, and exactly the receivers that read it; and every epoch fits
// the plane's MTU predicate.
func TestFECPlanGeometry(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct{ receivers, span, reads int }{
		{1, 10, 3}, {4, 40, 5}, {8, 2000, 12}, {30, 20000, 40}, {64, 60000, 200},
	} {
		t.Run(fmt.Sprint(tc), func(t *testing.T) {
			needs := make([][]uint32, tc.receivers)
			losses := make([]float64, tc.receivers)
			union := map[uint32]bool{}
			for r := range needs {
				for len(needs[r]) < tc.reads {
					it := uint32(rng.IntN(tc.span))
					if !slices.Contains(needs[r], it) {
						needs[r] = append(needs[r], it)
						union[it] = true
					}
				}
				slices.Sort(needs[r])
				losses[r] = rng.Float64() / 4
			}
			g := FECGeometry{KeysPerShard: 12, BlockSize: 8, MinParity: 1, MaxParity: 8, Fits: fitsMTU}
			p := g.Plan(needs, losses)
			if len(p.Items) != len(union) || !slices.IsSorted(p.Items) {
				t.Fatalf("packed %d items (sorted %v), want the %d of the union, ascending", len(p.Items), slices.IsSorted(p.Items), len(union))
			}
			for r, pos := range p.Positions {
				if !slices.IsSorted(pos) {
					t.Fatalf("receiver %d: positions %v not ascending", r, pos)
				}
				for i, q := range pos {
					if p.Items[q] != needs[r][i] {
						t.Fatalf("receiver %d: position %d holds item %d, want %d", r, q, p.Items[q], needs[r][i])
					}
				}
			}
			packets := 0
			readers := make([][]int, len(p.Blocks))
			for r := range needs {
				for _, nb := range p.Reads(r) {
					readers[nb.Block] = append(readers[nb.Block], r)
				}
			}
			for b, blk := range p.Blocks {
				if len(p.Audience[b]) == 0 || fmt.Sprint(p.Audience[b]) != fmt.Sprint(readers[b]) {
					t.Fatalf("block %d: audience %v, readers %v", b, p.Audience[b], readers[b])
				}
				if parity := int(blk.Shards - blk.K); parity < g.MinParity || parity > g.MaxParity {
					t.Fatalf("block %d: parity %d outside [%d, %d]", b, parity, g.MinParity, g.MaxParity)
				}
				packets += int(blk.Shards)
			}
			if p.KPD > 1 && !fitsMTU(p.KPD, packets) {
				t.Fatalf("%d packets of %d items each exceed the MTU", packets, p.KPD)
			}
		})
	}
	if p := (FECGeometry{KeysPerShard: 4, BlockSize: 8}).Plan([][]uint32{nil, nil}, []float64{0, 0}); len(p.Blocks) != 0 {
		t.Fatalf("receivers that read nothing: %d blocks planned", len(p.Blocks))
	}
}

// TestFECComplete: a receiver reads its items of a block once it holds
// every source shard carrying them, or any K shards, and not before.
func TestFECComplete(t *testing.T) {
	nb := wire.NeededBlock{DigestBlock: wire.DigestBlock{K: 4, Shards: 6}, Sources: []uint8{1, 3}}
	held := func(s ...uint8) map[uint8][]byte {
		m := map[uint8][]byte{}
		for _, v := range s {
			m[v] = nil
		}
		return m
	}
	for _, tc := range []struct {
		name string
		held map[uint8][]byte
		want bool
	}{
		{"needed sources alone", held(1, 3), true},
		{"K shards, parity among them", held(0, 2, 4, 5), true},
		{"one needed source and parity", held(1, 4, 5), false},
		{"other sources", held(0, 2), false},
		{"nothing", held(), false},
	} {
		if got := Complete(nb, tc.held); got != tc.want {
			t.Errorf("%s: Complete = %v, want %v", tc.name, got, tc.want)
		}
	}
	short, loss := Shortfall([]wire.NeededBlock{nb, {DigestBlock: wire.DigestBlock{Block: 1, K: 2, Shards: 4}, Sources: []uint8{0}}},
		map[uint16]map[uint8][]byte{0: held(1, 4, 5), 1: held(0)})
	if fmt.Sprint(short) != "[{0 3}]" || loss != 600 {
		t.Fatalf("Shortfall = %v, %d‰; want [{0 3}] (block 0, 3 held) and 6 of 10 packets lost = 600‰", short, loss)
	}
}

// TestFECRepairCursorCoversBlock: with the same deficit every round, the
// (receiver, block) cursor reaches every shard of the block within
// ⌈shards/(deficit+1)⌉ rounds, and receivers and blocks keep their own.
func TestFECRepairCursorCoversBlock(t *testing.T) {
	for _, tc := range []struct{ k, parity, have int }{
		{8, 1, 0}, {8, 1, 7}, {8, 3, 5}, {4, 8, 1}, {1, 1, 0}, {8, 8, 2},
	} {
		p := FECGeometry{KeysPerShard: 1, BlockSize: tc.k, MinParity: tc.parity, MaxParity: tc.parity}.
			Plan([][]uint32{seq(2 * tc.k), seq(2 * tc.k)}, []float64{0, 0})
		shards := tc.k + tc.parity
		rounds := (shards + tc.k - tc.have) / (tc.k - tc.have + 1) // ⌈shards/(deficit+1)⌉
		seen := map[uint8]bool{}
		for i := 0; i < rounds; i++ {
			got := p.Repair(0, 0, tc.have)
			if len(got) != min(tc.k-tc.have+1, shards) {
				t.Fatalf("%+v: round %d resends %v, want deficit+1 = %d shards", tc, i, got, tc.k-tc.have+1)
			}
			for _, s := range got {
				seen[s] = true
			}
		}
		if len(seen) != shards {
			t.Errorf("%+v: %d rounds reached %d of %d shards", tc, rounds, len(seen), shards)
		}
		if got := p.Repair(1, 0, tc.have); got[0] != 0 {
			t.Errorf("%+v: receiver 1 starts at shard %d, want its own cursor at 0", tc, got[0])
		}
		if got := p.Repair(0, 1, tc.have); got[0] != 0 {
			t.Errorf("%+v: block 1 starts at shard %d, want its own cursor at 0", tc, got[0])
		}
		if got := p.Repair(0, 0, tc.k); got != nil {
			t.Errorf("%+v: a block held in full gets %v", tc, got)
		}
	}
}

// TestLossEstimateDecays: a report sets the estimate and survives the next
// plan; every plan after that without a report halves it, so a 40 % report
// raises a block's parity and three clean epochs bring it back to the
// floor.
func TestLossEstimateDecays(t *testing.T) {
	var l LossEstimate
	parity := func() int { return ProactiveParity(8, []float64{l.Plan()}, DefaultMinParity, DefaultMaxParity) }
	if got := parity(); got != DefaultMinParity {
		t.Fatalf("no report: parity %d, want %d", got, DefaultMinParity)
	}
	l.Report(0.4)
	var got []int
	var rates []float64
	for i := 0; i < 4; i++ {
		got = append(got, parity())
		rates = append(rates, l.Rate())
	}
	if fmt.Sprint(rates) != "[0.4 0.2 0.1 0.05]" {
		t.Fatalf("estimates over four plans %v, want [0.4 0.2 0.1 0.05]", rates)
	}
	if fmt.Sprint(got) != "[6 2 1 1]" {
		t.Fatalf("parity over four plans %v, want [6 2 1 1]: ⌈8·(E[M]−1)⌉ clamped to [1, 8]", got)
	}
	l.Report(0.1)
	l.Report(0.3) // the last report of an epoch counts
	if got := l.Plan(); got != 0.3 {
		t.Fatalf("after two reports the plan reads %v, want 0.3", got)
	}
}

// seq returns 0, 1, …, n−1.
func seq(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}
