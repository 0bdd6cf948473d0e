package keytree

import (
	"crypto/rand"
	"fmt"
	"io"
	"slices"
	"sort"

	"groupkey/internal/keycrypt"
)

// This file is the parallel rekey emission engine, Phases 5 and 6 of Rekey.
// It splits emission into two steps:
//
//  1. Plan (single-threaded, part of Advance): sort the dirty nodes by
//     precomputed depth and build every Item's metadata (kind, level) and
//     its wrap job (payload and wrapping key). The wraps are left pending
//     on the payload (PendingWraps); Advance draws only key material.
//  2. Seal (parallel): draw every wrap's nonce in one read of the tree's
//     entropy source, in canonical order, then keycrypt.Wrapper.WrapBatch
//     fans the AES-GCM seals out over a bounded worker pool through the
//     tree's cached-key-schedule Wrapper, each job writing into its
//     pre-assigned item slot.
//
// Because nonces and slots are fixed before any worker runs, the payload
// is byte-for-byte identical for any worker count. The nonces come from
// whatever the entropy source yields when Seal runs, so a caller that
// needs the payload reproducible (Rekey, a journaled ProcessBatch) seals
// right after Advance; replay, which sends nothing, never seals and never
// draws a nonce.
//
// Multicast items name no receivers: an LKH member holds exactly the keys
// on its leaf-to-root path, so a wrap under a node's key is addressed by
// that key (see Item.Receivers). Planning only has to decide whether a wrap
// reaches anyone at all, which is a count (joinerCounts.reaches), so a
// rekey touches the dirty paths and nothing below them.

// wrapJob is one planned AES-GCM seal: everything a worker needs. dst is
// pinned to the job's item slot when the seal runs, not before.
type wrapJob struct {
	payload keycrypt.Key
	wrapper keycrypt.Key
	dst     *keycrypt.WrappedKey
}

// PendingWraps is the AES-GCM half of an advanced rekey: one planned wrap
// per item of the payload's Items and JoinerItems, 1:1 and in order, each
// with its payload key and wrapping key fixed. The nonces are not drawn
// yet: Seal draws them from the tree's entropy source. The zero value owes
// nothing.
type PendingWraps struct {
	items, joiners []wrapJob
	// nonces holds one nonce per job, item jobs then joiner jobs; Seal
	// fills it in one read of rand. It is allocated with the jobs so the
	// seal itself allocates nothing.
	nonces  []byte
	rand    io.Reader
	wrapper *keycrypt.Wrapper
	workers int
}

// Seal draws the pending wraps' nonces, runs the wraps into items and
// joinerItems and drops them, so a second Seal is a no-op. A failed nonce
// draw keeps the wraps pending, so a retry draws again instead of
// returning with the items unsealed; a failed WrapBatch drops them. The nonces are the
// entropy source's next bytes, so Seal belongs right after Advance,
// inside the same journaled operation.
// The slices are the ones the payload's Items and JoinerItems became: a
// caller may have appended items of its own after them (append may have
// moved them to a new array), but the payload's items must still lead, in
// order.
func (w *PendingWraps) Seal(items, joinerItems []Item) error {
	if len(items) < len(w.items) || len(joinerItems) < len(w.joiners) {
		return fmt.Errorf("keytree: sealing %d+%d wraps into %d+%d items",
			len(w.items), len(w.joiners), len(items), len(joinerItems))
	}
	if _, err := io.ReadFull(w.rand, w.nonces); err != nil {
		return fmt.Errorf("keytree: drawing wrap nonces: %w", err)
	}
	// Pin destination slots 1:1, then emit.
	for i := range w.items {
		w.items[i].dst = &items[i].Wrapped
	}
	for i := range w.joiners {
		w.joiners[i].dst = &joinerItems[i].Wrapped
	}
	err := w.wrapper.WrapBatch((*sealJobs)(w), w.workers)
	*w = PendingWraps{}
	return err
}

// sealJobs is the item jobs followed by the joiner jobs as one
// keycrypt.WrapJobs, indexed as one list without copying them into one.
type sealJobs PendingWraps

func (s *sealJobs) Len() int { return len(s.items) + len(s.joiners) }

func (s *sealJobs) Job(i int) (payload, wrapper *keycrypt.Key, nonce *[keycrypt.NonceSize]byte, dst *keycrypt.WrappedKey) {
	var j *wrapJob
	if i < len(s.items) {
		j = &s.items[i]
	} else {
		j = &s.joiners[i-len(s.items)]
	}
	return &j.payload, &j.wrapper, (*[keycrypt.NonceSize]byte)(s.nonces[i*keycrypt.NonceSize:]), j.dst
}

// emitPlanned plans the payload over the dirty set, leaving its wraps
// pending. joinerIDs is the batch's joiners in ascending order.
func (t *Tree) emitPlanned(dirty map[*Node]*dirtyInfo, joinerIDs []MemberID) *Payload {
	nodes, depths := sortDirtyNodes(dirty)

	// Upper bounds on wrap counts (skips only shrink them), so the item and
	// job slices are allocated once instead of doubling their way up.
	itemCap := 0
	for _, n := range nodes {
		if info := dirty[n]; info.departure || info.isNew {
			itemCap += len(n.children)
		} else {
			itemCap++
		}
	}
	joinerCap := 0
	for _, m := range joinerIDs {
		joinerCap += t.leaves[m].Depth()
	}

	p := &Payload{Items: make([]Item, 0, itemCap)}
	if joinerCap > 0 {
		p.JoinerItems = make([]Item, 0, joinerCap)
	}
	joiners := t.joinersUnder(joinerIDs, len(dirty))
	itemJobs := make([]wrapJob, 0, itemCap)
	joinerJobs := make([]wrapJob, 0, joinerCap)

	// Phase 5 plan: child and old-key wraps, deepest nodes first.
	for i, n := range nodes {
		info := dirty[n]
		level := depths[i]
		if info.departure || info.isNew {
			for _, c := range n.children {
				if !joiners.reaches(c) {
					continue
				}
				p.Items = append(p.Items, Item{Kind: ChildWrap, Level: level})
				itemJobs = append(itemJobs, wrapJob{payload: n.key, wrapper: c.key})
			}
		} else {
			if !joiners.reaches(n) {
				continue
			}
			p.Items = append(p.Items, Item{Kind: OldKeyWrap, Level: level})
			itemJobs = append(itemJobs, wrapJob{payload: n.key, wrapper: info.oldKey})
		}
	}

	// Phase 6 plan: joiner path deliveries, ascending member order.
	for _, m := range joinerIDs {
		leaf := t.leaves[m]
		level := leaf.Depth()
		for n := leaf.parent; n != nil; n = n.parent {
			level--
			p.JoinerItems = append(p.JoinerItems, Item{Kind: JoinerWrap, Level: level, Receivers: []MemberID{m}})
			joinerJobs = append(joinerJobs, wrapJob{payload: n.key, wrapper: leaf.key})
		}
	}
	rng := t.gen.Rand
	if rng == nil {
		rng = rand.Reader
	}
	p.Pending = PendingWraps{
		items: itemJobs, joiners: joinerJobs,
		nonces: make([]byte, (len(itemJobs)+len(joinerJobs))*keycrypt.NonceSize),
		rand:   rng, wrapper: t.wrapper, workers: t.WrapWorkers(),
	}
	return p
}

// joinerCounts maps every node on a batch joiner's path to the number of
// the batch's joiners beneath it.
type joinerCounts map[*Node]int

// joinersUnder counts joins, whose leaves are already placed, up their
// paths. Joiners sit under dirty nodes only, so the walk never enters a
// clean subtree; size is the dirty set's, a hint for the map.
func (t *Tree) joinersUnder(joins []MemberID, size int) joinerCounts {
	under := make(joinerCounts, size+len(joins))
	for _, m := range joins {
		for n := t.leaves[m]; n != nil; n = n.parent {
			under[n]++
		}
	}
	return under
}

// reaches reports whether a wrap under n's key is worth multicasting: n must
// hold a member that is not a joiner of the batch. A joiner receives every
// key on its path through its JoinerWrap items, so a wrap only joiners
// could open would carry zero information. Emission and the planner's
// simulation both decide by this one predicate.
func (u joinerCounts) reaches(n *Node) bool { return n.leaves > u[n] }

// sortDirtyNodes orders the dirty set deepest-first (ties by key ID) with
// each node's depth computed once up front, instead of two O(depth) Depth()
// walks inside every sort comparison.
func sortDirtyNodes(dirty map[*Node]*dirtyInfo) ([]*Node, []int) {
	type nodeDepth struct {
		n *Node
		d int
	}
	byDepth := make([]nodeDepth, 0, len(dirty))
	for n := range dirty {
		byDepth = append(byDepth, nodeDepth{n: n, d: n.Depth()})
	}
	sort.Slice(byDepth, func(i, j int) bool {
		if byDepth[i].d != byDepth[j].d {
			return byDepth[i].d > byDepth[j].d
		}
		return byDepth[i].n.key.ID < byDepth[j].n.key.ID
	})
	nodes := make([]*Node, len(byDepth))
	depths := make([]int, len(byDepth))
	for i, nd := range byDepth {
		nodes[i] = nd.n
		depths[i] = nd.d
	}
	return nodes, depths
}

// MergeMembers merges ascending member lists into one fresh ascending list
// the caller owns. Multi-tree schemes list their members with it.
func MergeMembers(lists ...[]MemberID) []MemberID {
	lists, total := nonEmptyLists(slices.Clone(lists))
	out := make([]MemberID, total)
	if len(lists) == 1 {
		copy(out, lists[0])
	} else if len(lists) > 1 {
		mergeInto(out, lists)
	}
	return out
}

// nonEmptyLists filters lists in place down to its non-empty entries and
// returns them with their total length.
func nonEmptyLists(lists [][]MemberID) ([][]MemberID, int) {
	nonEmpty := lists[:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
			total += len(l)
		}
	}
	return nonEmpty, total
}

// mergeInto merges two or more non-empty ascending lists into out, whose
// length is their total, and returns it. The cascade runs in that one
// buffer: the two shortest lists merge into its tail, and each later pass
// merges the accumulated run with the next list into a destination that
// starts len(list) earlier. Writing position k of a pass has consumed k
// elements, at most len(list) of them from the list, so the write index
// never passes the unread part of the run. Shortest first, so later passes
// move fewer elements.
func mergeInto(out []MemberID, lists [][]MemberID) []MemberID {
	slices.SortFunc(lists, func(a, b []MemberID) int { return len(a) - len(b) })
	start := len(out) - len(lists[0]) - len(lists[1])
	merge2(lists[0], lists[1], out[start:start])
	for _, l := range lists[2:] {
		run := out[start:]
		start -= len(l)
		merge2(run, l, out[start:start])
	}
	return out
}

// merge2 appends the merge of a and b to out. out may share a's backing
// array when it starts at least len(b) before a (see mergeInto).
func merge2(a, b, out []MemberID) []MemberID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
