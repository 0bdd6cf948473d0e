package keytree

import (
	"crypto/rand"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"groupkey/internal/keycrypt"
)

// This file is the parallel rekey emission engine: the replacement for the
// serial Phase 5/6 of Rekey (kept verbatim in emitLegacy as the oracle).
//
// The engine splits emission into two steps:
//
//  1. Plan (single-threaded): sort the dirty nodes by precomputed depth,
//     build every Item's metadata (kind, level, receivers) and draw one
//     nonce per wrap from the tree's entropy source in the exact order the
//     serial emitter would. Receiver lists are built bottom-up — a dirty
//     node's list is the linear merge of its children's already-sorted
//     lists, and a clean subtree's list comes from the tree's cross-epoch
//     cache (subtreeLists) — instead of the legacy walk-and-sort per wrap.
//  2. Emit (parallel): fan the AES-GCM seals out over a bounded worker
//     pool, each job writing into its pre-assigned payload slot through
//     the tree's cached-key-schedule Wrapper.
//
// Because nonces and slots are fixed during planning, the payload is
// byte-for-byte identical to the serial emitter's for any worker count.

// wrapJob is one planned AES-GCM seal: everything a worker needs, with the
// destination slot fixed before the fan-out.
type wrapJob struct {
	payload keycrypt.Key
	wrapper keycrypt.Key
	nonce   [keycrypt.NonceSize]byte
	dst     *keycrypt.WrappedKey
}

// minParallelJobs is the fan-out threshold: below it, goroutine start-up
// costs more than the AES work it would spread.
const minParallelJobs = 32

// emitPlanned runs the plan/emit engine over the dirty set. joinerIDs is
// the joiners set in ascending order.
func (t *Tree) emitPlanned(dirty map[*Node]*dirtyInfo, joiners map[MemberID]bool, joinerIDs []MemberID) (*Payload, error) {
	nodes, depths := sortDirtyNodes(dirty)
	rng := t.gen.Rand
	if rng == nil {
		rng = rand.Reader
	}
	nonces := nonceDrawer{rng: rng}

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
	recv := newReceiverIndex(t, dirty, joiners)
	itemJobs := make([]wrapJob, 0, itemCap)
	joinerJobs := make([]wrapJob, 0, joinerCap)

	// Phase 5 plan: child and old-key wraps, deepest nodes first.
	for i, n := range nodes {
		info := dirty[n]
		level := depths[i]
		if info.departure || info.isNew {
			for _, c := range n.children {
				receivers := recv.under(c)
				if len(receivers) == 0 {
					// Every member under c is a joiner of this batch and
					// receives the key through its JoinerWrap path instead;
					// multicasting this wrap would carry zero information.
					continue
				}
				nonce, err := nonces.next()
				if err != nil {
					return nil, err
				}
				p.Items = append(p.Items, Item{Kind: ChildWrap, Level: level, Receivers: receivers})
				itemJobs = append(itemJobs, wrapJob{payload: n.key, wrapper: c.key, nonce: nonce})
			}
		} else {
			receivers := recv.under(n)
			if len(receivers) == 0 {
				continue
			}
			nonce, err := nonces.next()
			if err != nil {
				return nil, err
			}
			p.Items = append(p.Items, Item{Kind: OldKeyWrap, Level: level, Receivers: receivers})
			itemJobs = append(itemJobs, wrapJob{payload: n.key, wrapper: info.oldKey, nonce: nonce})
		}
	}

	// Phase 6 plan: joiner path deliveries, ascending member order.
	for _, m := range joinerIDs {
		leaf := t.leaves[m]
		level := leaf.Depth()
		for n := leaf.parent; n != nil; n = n.parent {
			level--
			nonce, err := nonces.next()
			if err != nil {
				return nil, err
			}
			p.JoinerItems = append(p.JoinerItems, Item{Kind: JoinerWrap, Level: level, Receivers: []MemberID{m}})
			joinerJobs = append(joinerJobs, wrapJob{payload: n.key, wrapper: leaf.key, nonce: nonce})
		}
	}

	// Both slices are final: pin destination slots 1:1, then emit.
	for i := range itemJobs {
		itemJobs[i].dst = &p.Items[i].Wrapped
	}
	for i := range joinerJobs {
		joinerJobs[i].dst = &p.JoinerItems[i].Wrapped
	}
	jobs := itemJobs
	if len(jobs) == 0 {
		jobs = joinerJobs
	} else if len(joinerJobs) > 0 {
		jobs = append(jobs, joinerJobs...)
	}
	if err := t.runWrapJobs(jobs); err != nil {
		return nil, err
	}
	return p, nil
}

// nonceDrawer reads wrap nonces in canonical planning order — so emission
// scheduling cannot perturb payload bytes — through one reusable buffer: a
// per-draw stack array would escape into the io.Reader call and cost an
// allocation per wrap.
type nonceDrawer struct {
	rng io.Reader
	buf [keycrypt.NonceSize]byte
}

func (d *nonceDrawer) next() ([keycrypt.NonceSize]byte, error) {
	if _, err := io.ReadFull(d.rng, d.buf[:]); err != nil {
		return d.buf, fmt.Errorf("keytree: drawing wrap nonce: %w", err)
	}
	return d.buf, nil
}

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

// receiverIndex computes sorted receiver lists (members under a node,
// batch joiners excluded) with memoization: since dirtiness is
// upward-closed, a dirty node's list is the merge of its children's lists,
// and the clean subtrees on the dirty frontier come from the tree's
// cross-epoch cache. Lists are shared between items and epochs; they are
// read-only by contract.
type receiverIndex struct {
	tree    *Tree
	dirty   map[*Node]*dirtyInfo
	exclude map[MemberID]bool
	memo    map[*Node][]MemberID
}

func newReceiverIndex(t *Tree, dirty map[*Node]*dirtyInfo, exclude map[MemberID]bool) *receiverIndex {
	return &receiverIndex{
		tree:    t,
		dirty:   dirty,
		exclude: exclude,
		// Memo holds the dirty nodes plus their immediate clean children.
		memo: make(map[*Node][]MemberID, 2*len(dirty)),
	}
}

// under returns the sorted receivers beneath n. The result may alias lists
// stored in other Items' Receivers; callers must not mutate it.
func (r *receiverIndex) under(n *Node) []MemberID {
	if out, ok := r.memo[n]; ok {
		return out
	}
	var out []MemberID
	switch {
	case n.IsLeaf():
		r.tree.leavesVisited++
		if !r.exclude[n.member] {
			out = []MemberID{n.member}
		}
	case r.dirty[n] == nil:
		// Clean interior: nothing beneath it changed this batch, so no
		// joiner is there to exclude and its cached list is current.
		out = r.tree.subtreeList(n)
	default:
		lists := make([][]MemberID, 0, len(n.children))
		for _, c := range n.children {
			lists = append(lists, r.under(c))
		}
		out = mergeSorted(lists)
	}
	r.memo[n] = out
	return out
}

// subtreeList returns the ascending members of the clean subtree at n,
// shared and read-only. At or above subtreeListFloor the list is cached
// until n is next dirtied; a miss rebuilds it by merging the children's
// lists, so what a past epoch dirtied costs one merge per level instead of
// a walk and sort of every leaf below.
func (t *Tree) subtreeList(n *Node) []MemberID {
	if n.leaves < subtreeListFloor {
		out := collectMembers(n, make([]MemberID, 0, n.leaves))
		t.leavesVisited += len(out)
		slices.Sort(out)
		return out
	}
	if out, ok := t.subtreeLists[n]; ok {
		return out
	}
	lists := make([][]MemberID, 0, len(n.children))
	for _, c := range n.children {
		lists = append(lists, t.subtreeList(c))
	}
	out := mergeSorted(lists)
	if t.subtreeLists == nil {
		t.subtreeLists = make(map[*Node][]MemberID)
	}
	t.subtreeLists[n] = out
	return out
}

// collectMembers appends the members of n's subtree to out in tree order
// (sorted afterwards by the caller).
func collectMembers(n *Node, out []MemberID) []MemberID {
	if n.member != 0 {
		return append(out, n.member)
	}
	for _, c := range n.children {
		out = collectMembers(c, out)
	}
	return out
}

// mergeSorted merges already-sorted lists by cascaded two-way merges — a
// tight two-pointer loop per pair beats a d-wide min scan per element. A
// single non-empty input is returned as-is (lists are shared read-only).
// lists is reordered in place.
func mergeSorted(lists [][]MemberID) []MemberID {
	lists, total := nonEmptyLists(lists)
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	return mergeInto(make([]MemberID, total), lists)
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

// MergeMembers merges ascending member lists into one fresh ascending list
// the caller owns.
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

// runWrapJobs executes the planned seals, inline or across the worker
// pool. Workers only read the tree's Wrapper cache and write disjoint
// pre-assigned slots, so scheduling cannot affect payload bytes.
func (t *Tree) runWrapJobs(jobs []wrapJob) error {
	if len(jobs) == 0 {
		return nil
	}
	workers := t.WrapWorkers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 || len(jobs) < minParallelJobs {
		for i := range jobs {
			if err := t.runWrapJob(&jobs[i]); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || failed.Load() {
					return
				}
				if err := t.runWrapJob(&jobs[i]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (t *Tree) runWrapJob(j *wrapJob) error {
	w, err := t.wrapper.WrapNonce(j.payload, j.wrapper, j.nonce)
	if err != nil {
		return fmt.Errorf("keytree: wrapping %s under %s: %w", j.payload.ID, j.wrapper.ID, err)
	}
	*j.dst = w
	return nil
}
