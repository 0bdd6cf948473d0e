package server

import (
	"crypto/ed25519"
	"fmt"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// BenchmarkSealEpoch times sealing one epoch — item encoding, Merkle tree,
// root signature, connected-scoped index, release — at the epoch ledger's
// churn shape: L=512 connected members and 256 replacements per epoch in a
// OneTree of N members. The scheme's own rekey is harness cost. The seal
// must follow L and the item count, so N=100k should stay within 2× of
// N=10k (the item count grows with the tree's depth).
func BenchmarkSealEpoch(b *testing.B) {
	const connected, churn = 512, 256
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sc, err := core.NewOneTree(core.WithRand(keycrypt.NewDeterministicReader(uint64(n))))
			if err != nil {
				b.Fatal(err)
			}
			var fill core.Batch
			for i := 1; i <= n; i++ {
				fill.Joins = append(fill.Joins, core.Join{ID: keytree.MemberID(i)})
			}
			if _, err := sc.ProcessBatch(fill); err != nil {
				b.Fatal(err)
			}
			// The connected members sit evenly across the ID space and never
			// leave: replacements hit the IDs right after them.
			audience := make([]keytree.MemberID, connected)
			for i := range audience {
				audience[i] = keytree.MemberID(1 + i*(n/connected))
			}
			_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(1))
			if err != nil {
				b.Fatal(err)
			}
			next := keytree.MemberID(n + 1)
			gone := make([]keytree.MemberID, churn)
			for i := range gone {
				gone[i] = audience[2*i] + 1
			}
			seal := func() int {
				b.StopTimer()
				var batch core.Batch
				for i := range gone {
					batch.Leaves = append(batch.Leaves, gone[i])
					batch.Joins = append(batch.Joins, core.Join{ID: next})
					gone[i] = next
					next++
				}
				rekey, err := sc.ProcessBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				eb, err := newEpochBuffer(priv, rekey, audience, sc.PathIDs)
				if err != nil {
					b.Fatal(err)
				}
				pairs := 0
				for p := range audience {
					pairs += len(eb.index.At(p))
				}
				eb.release()
				return pairs
			}
			seal() // warm the item-buffer and index pools
			b.ReportAllocs()
			b.ResetTimer()
			pairs := 0
			for i := 0; i < b.N; i++ {
				pairs += seal()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/seal")
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/seal")
		})
	}
}
