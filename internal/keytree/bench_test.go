package keytree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"groupkey/internal/keycrypt"
)

func benchTree(tb testing.TB, degree, n int, opts ...Option) *Tree {
	tb.Helper()
	tr, err := New(degree, append([]Option{WithRand(keycrypt.NewDeterministicReader(uint64(n)))}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	batch := Batch{}
	for i := 1; i <= n; i++ {
		batch.Joins = append(batch.Joins, MemberID(i))
	}
	if _, err := tr.Rekey(batch); err != nil {
		tb.Fatal(err)
	}
	return tr
}

func BenchmarkJoinLeaveCycle(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := benchTree(b, 4, n)
			next := MemberID(n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Join(next); err != nil {
					b.Fatal(err)
				}
				if _, err := tr.Leave(next); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}

func BenchmarkBatchRekey(b *testing.B) {
	for _, tc := range []struct{ n, l int }{
		{1024, 16}, {4096, 64}, {65536, 256},
	} {
		b.Run(fmt.Sprintf("n=%d_l=%d", tc.n, tc.l), func(b *testing.B) {
			tr := benchTree(b, 4, tc.n)
			next := MemberID(tc.n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				members := tr.Members()
				batch := Batch{}
				for j := 0; j < tc.l; j++ {
					batch.Leaves = append(batch.Leaves, members[(j*997)%len(members)])
					batch.Joins = append(batch.Joins, next)
					next++
				}
				p, err := tr.Rekey(batch)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(p.MulticastKeyCount()), "keys/batch")
				}
			}
		})
	}
}

// BenchmarkBatchRekeyEngine times replacement batches with the rekey alone
// inside the timer, reporting wrapped keys per second.
func BenchmarkBatchRekeyEngine(b *testing.B) {
	for _, tc := range []struct{ n, l int }{
		{4096, 64}, {65536, 256},
	} {
		b.Run(fmt.Sprintf("n=%d_l=%d", tc.n, tc.l), func(b *testing.B) {
			tr := benchTree(b, 4, tc.n)
			next := MemberID(tc.n + 1)
			b.ReportAllocs()
			b.ResetTimer()
			keys := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer() // batch construction is harness cost, not rekey cost
				members := tr.Members()
				batch := Batch{}
				for j := 0; j < tc.l; j++ {
					batch.Leaves = append(batch.Leaves, members[(j*997)%len(members)])
					batch.Joins = append(batch.Joins, next)
					next++
				}
				b.StartTimer()
				p, err := tr.Rekey(batch)
				if err != nil {
					b.Fatal(err)
				}
				keys += p.TotalKeyCount()
			}
			b.ReportMetric(float64(keys)/b.Elapsed().Seconds(), "keys/sec")
		})
	}
}

// BenchmarkRekeyChurn100k is the epoch benchmark's churn100k workload with
// the server taken away: N=100k at d=4, 512 "connected" members sitting in
// evenly spaced slots of the tree, 256 of them replaced per iteration. The
// other 99.5k members never change, so nearly every subtree is clean in
// every epoch and a rekey touches the 256 dirty paths only.
func BenchmarkRekeyChurn100k(b *testing.B) {
	const n, probes, replace = 100000, 512, 256
	tr := benchTree(b, 4, n)
	next := MemberID(n + 1)
	// Evenly spaced members leave and the probes join into their gaps.
	swap := Batch{}
	for i := 0; i < probes; i++ {
		swap.Leaves = append(swap.Leaves, MemberID(i*n/probes+1))
		swap.Joins = append(swap.Joins, next)
		next++
	}
	if _, err := tr.Rekey(swap); err != nil {
		b.Fatal(err)
	}
	live := swap.Joins
	rnd := rand.New(rand.NewSource(1))
	tr.MembersView() // warm, as the scheme's Stream.Audience keeps it
	b.ReportAllocs()
	b.ResetTimer()
	keys := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer() // batch construction is harness cost, not rekey cost
		rnd.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		batch := Batch{Leaves: append([]MemberID(nil), live[:replace]...)}
		for j := 0; j < replace; j++ {
			batch.Joins = append(batch.Joins, next)
			live[j] = next
			next++
		}
		b.StartTimer()
		p, err := tr.Rekey(batch)
		if err != nil {
			b.Fatal(err)
		}
		keys += p.TotalKeyCount()
	}
	b.ReportMetric(float64(keys)/b.Elapsed().Seconds(), "keys/sec")
}

// BenchmarkSortDirtyNodes compares the engine's precomputed-depth sort
// against the legacy comparator that re-walks parent chains (O(depth) per
// comparison) on a realistic dirty set.
func BenchmarkSortDirtyNodes(b *testing.B) {
	tr := benchTree(b, 4, 65536)
	members := tr.Members()
	batch := Batch{}
	for j := 0; j < 256; j++ {
		batch.Leaves = append(batch.Leaves, members[(j*997)%len(members)])
	}
	// Rebuild the dirty set the way Rekey would, without emitting.
	dirty := make(map[*Node]*dirtyInfo)
	for _, m := range batch.Leaves {
		for n := tr.leaves[m].parent; n != nil; n = n.parent {
			if _, ok := dirty[n]; !ok {
				dirty[n] = &dirtyInfo{oldKey: n.key, departure: true}
			}
		}
	}
	b.Run("precomputed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sortDirtyNodes(dirty)
		}
	})
	b.Run("legacy-comparator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nodes := make([]*Node, 0, len(dirty))
			for n := range dirty {
				nodes = append(nodes, n)
			}
			sort.Slice(nodes, func(i, j int) bool {
				di, dj := nodes[i].Depth(), nodes[j].Depth()
				if di != dj {
					return di > dj
				}
				return nodes[i].key.ID < nodes[j].key.ID
			})
		}
	})
}

func BenchmarkPathLookup(b *testing.B) {
	tr := benchTree(b, 4, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Path(MemberID(i%65536 + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOFTBatchRekey(b *testing.B) {
	for _, tc := range []struct{ n, l int }{
		{1024, 16}, {4096, 64},
	} {
		b.Run(fmt.Sprintf("n=%d_l=%d", tc.n, tc.l), func(b *testing.B) {
			tr, err := NewOFT(WithRand(keycrypt.NewDeterministicReader(uint64(tc.n))))
			if err != nil {
				b.Fatal(err)
			}
			batch := Batch{}
			for i := 1; i <= tc.n; i++ {
				batch.Joins = append(batch.Joins, MemberID(i))
			}
			if _, err := tr.Rekey(batch); err != nil {
				b.Fatal(err)
			}
			next := MemberID(tc.n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				members := tr.Members()
				rb := Batch{}
				for j := 0; j < tc.l; j++ {
					rb.Leaves = append(rb.Leaves, members[(j*997)%len(members)])
					rb.Joins = append(rb.Joins, next)
					next++
				}
				p, err := tr.Rekey(rb)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(p.MulticastKeyCount()), "keys/batch")
				}
			}
		})
	}
}

func BenchmarkExpectedRekeyCost(b *testing.B) {
	tr := benchTree(b, 4, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.ExpectedRekeyCost(256)
	}
}

// planBench builds a planner tree of n members at d=4 and one two-class-
// shaped batch for it — 48 departures spread over the tree, 32 arrivals —
// which the planner simulates (J ≠ L, and the departures leave anchors).
func planBench(tb testing.TB, n int) (*Tree, Batch) {
	tb.Helper()
	tr := benchTree(tb, 4, n, WithPlanner(PlannerConfig{}))
	b := Batch{}
	for j := 0; j < 48; j++ {
		b.Leaves = append(b.Leaves, MemberID(1+(j*997)%n))
	}
	for j := 1; j <= 32; j++ {
		b.Joins = append(b.Joins, MemberID(n+j))
	}
	plan, err := tr.PlanBatch(b)
	if err != nil {
		tb.Fatal(err)
	}
	if plan.PredictedWraps < 0 {
		tb.Fatal("the planner did not simulate the batch")
	}
	return tr, b
}

// BenchmarkPlanBatch times one placement decision: the anchor candidate
// and two dry runs on the tree, each rolled back.
func BenchmarkPlanBatch(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr, batch := planBench(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.PlanBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
