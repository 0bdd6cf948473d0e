package experiments

import (
	"crypto/ed25519"

	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// FanoutResult quantifies one group size's broadcast cost per member for a
// churn rekey: the reference path hands every member the full signed
// payload (the server no longer sends it), the sparse path hands each
// member only its Merkle-authenticated slice.
type FanoutResult struct {
	GroupSize int `json:"group_size"`
	Churn     int `json:"churn_per_batch"`
	Items     int `json:"items"`
	// FullBytesPerMember is the signed full-payload frame size — what every
	// member would receive on the reference path regardless of its needs.
	FullBytesPerMember float64 `json:"full_bytes_per_member"`
	// SparseBytesPerMember is the mean sparse frame size across the whole
	// membership, heartbeat frames for unaddressed members included.
	SparseBytesPerMember float64 `json:"sparse_bytes_per_member"`
	// Reduction is FullBytesPerMember / SparseBytesPerMember.
	Reduction float64 `json:"reduction"`
}

// measureFanout builds a tree of the given size, runs one churn batch, and
// prices both delivery paths from the exact wire encodings. No signing or
// hashing throughput is involved — this is a byte-accounting measurement,
// so it is deterministic for a given seed.
func measureFanout(cfg PerfConfig, size int) (FanoutResult, error) {
	tr, err := keytree.New(4, WithPerfRand(cfg.Seed))
	if err != nil {
		return FanoutResult{}, err
	}
	prime := keytree.Batch{}
	for i := 1; i <= size; i++ {
		prime.Joins = append(prime.Joins, keytree.MemberID(i))
	}
	if _, err := tr.Rekey(prime); err != nil {
		return FanoutResult{}, err
	}
	b := keytree.Batch{}
	members := tr.Members()
	next := keytree.MemberID(size + 1)
	for j := 0; j < cfg.Churn; j++ {
		slot := (j * 997) % len(members)
		b.Leaves = append(b.Leaves, members[slot])
		b.Joins = append(b.Joins, next)
		members[slot] = next
		next++
	}
	p, err := tr.Rekey(b)
	if err != nil {
		return FanoutResult{}, err
	}
	items := p.AllItems()

	full, err := wire.EncodeRekey(1, items)
	if err != nil {
		return FanoutResult{}, err
	}
	fullBytes := float64(len(full) + ed25519.SignatureSize)

	var itemBuf []byte
	for _, it := range items {
		if itemBuf, err = wire.AppendRekeyItem(itemBuf, it); err != nil {
			return FanoutResult{}, err
		}
	}
	tree := wire.NewItemTree(len(items), func(i int) []byte {
		return itemBuf[i*wire.RekeyItemSize : (i+1)*wire.RekeyItemSize]
	})
	// Every member's share, as the server's seal derives it from key paths.
	members = tr.Members()
	var index wire.ScopedIndex
	index.Build(items, members, tr.PathIDs)
	total := 0
	for pos := range members {
		total += wire.SparseFrameSize(tree, index.At(pos))
	}
	mean := float64(total) / float64(size)

	return FanoutResult{
		GroupSize:            size,
		Churn:                cfg.Churn,
		Items:                len(items),
		FullBytesPerMember:   fullBytes,
		SparseBytesPerMember: mean,
		Reduction:            fullBytes / mean,
	}, nil
}
