// Package keytree implements the logical key hierarchy (LKH) data structure
// used by scalable group-rekeying schemes (Wallner et al., Wong et al.).
//
// A Tree is a d-ary hierarchy of symmetric keys maintained by the key server.
// Leaves are individual keys shared between one member and the server;
// interior nodes are auxiliary key-encryption keys; the root is the subtree's
// group key (or, when the tree is used as a partition, the partition key).
// Every member holds exactly the keys on the path from its leaf to the root,
// so a membership change invalidates one root-to-leaf path.
//
// The package supports both immediate (per-event) rekeying and periodic
// batched rekeying (Setia et al., Yang et al.): joins, leaves and migrations
// accumulated over a rekey interval are applied in one pass, and overlapping
// path updates are paid for once. Rekey payloads follow group-oriented
// rekeying: each updated key is encrypted under each of its children.
package keytree

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"

	"groupkey/internal/keycrypt"
)

// MemberID identifies a group member. IDs are assigned by the caller
// (typically the key server's registration path) and must be nonzero.
type MemberID uint64

// Tree errors.
var (
	ErrMemberExists     = errors.New("keytree: member already present")
	ErrMemberUnknown    = errors.New("keytree: no such member")
	ErrInvalidDegree    = errors.New("keytree: tree degree must be at least 2")
	ErrZeroMember       = errors.New("keytree: member ID must be nonzero")
	ErrEmptyTree        = errors.New("keytree: tree is empty")
	ErrBatchConflict    = errors.New("keytree: member appears in conflicting batch operations")
	ErrExhaustedEntropy = errors.New("keytree: key generation failed")
	ErrInvalidPlan      = errors.New("keytree: placement plan does not cover the batch")
)

// Node is one key slot in the hierarchy. Interior nodes hold auxiliary keys;
// leaf nodes hold member individual keys and carry a nonzero Member field.
type Node struct {
	key      keycrypt.Key
	parent   *Node
	children []*Node
	member   MemberID // nonzero iff leaf representing a member
	leaves   int      // number of member leaves in this subtree
}

// Key returns the node's current key.
func (n *Node) Key() keycrypt.Key { return n.key }

// Member returns the member occupying the leaf, or zero for interior nodes.
func (n *Node) Member() MemberID { return n.member }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// Leaves returns the number of member leaves under the node.
func (n *Node) Leaves() int { return n.leaves }

// Children returns the node's children slice. Callers must not mutate it.
func (n *Node) Children() []*Node { return n.children }

// Depth returns the number of edges from the root to this node.
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Tree is a d-ary logical key tree. It is not safe for concurrent use, not
// even PlanBatch beside a reader: a planner dry run transiently mutates the
// tree before rolling it back. The key server serializes access (see
// internal/core). Rekey internally fans wrap emission out over a worker pool
// (see WithWrapWorkers), but all tree mutation stays on the calling
// goroutine.
type Tree struct {
	degree int
	root   *Node
	leaves map[MemberID]*Node
	gen    keycrypt.Generator
	nextID keycrypt.KeyID

	// wrapper caches AES key schedules across rekeys; wrapWorkers sizes
	// the emission pool (0 = GOMAXPROCS).
	wrapper     *keycrypt.Wrapper
	wrapWorkers int

	// planner, when set, chooses each batch's placement (see planner.go);
	// otherwise the greedy pairing is applied.
	planner      bool
	plannerStats PlannerStats
	// undo is the log of the planner dry run in progress: the inverse of each
	// structural change it made, oldest first. rollback replays it
	// newest-first; it is empty whenever no dry run is in progress.
	undo []func()

	// members is the ascending member list, kept as state instead of being
	// re-sorted out of the leaf map every epoch. nil means cold (a new or
	// restored tree, or one whose last Rekey failed): MembersView rebuilds it
	// on first use. Once warm, each Rekey replaces it copy-on-write, so
	// views handed out earlier stay valid and unchanged. Schemes read it
	// for Members and Stream.Audience; rekey items never carry it.
	members []MemberID

	// stats accumulated across the tree's lifetime.
	stats Stats
}

// Stats counts work done by a tree across its lifetime. All counters are
// monotone.
type Stats struct {
	Joins         int // members added
	Departures    int // members removed
	KeysWrapped   int // encrypted keys emitted in rekey payloads
	KeysRefreshed int // key slots given fresh material
	Rekeys        int // batch rekey operations executed
}

// Option configures a Tree.
type Option func(*Tree)

// WithRand sets the entropy source used to mint keys. nil (the default)
// means crypto/rand. Simulations inject keycrypt.NewDeterministicReader for
// reproducibility.
func WithRand(r io.Reader) Option {
	return func(t *Tree) { t.gen.Rand = r }
}

// WithFirstKeyID sets the first key ID the tree allocates. Multi-tree
// schemes give each tree a disjoint ID space.
func WithFirstKeyID(id keycrypt.KeyID) Option {
	return func(t *Tree) { t.nextID = id }
}

// WithWrapWorkers sets how many goroutines Rekey uses to emit AES-GCM
// wraps. n <= 0 (the default) resolves to runtime.GOMAXPROCS(0); n == 1
// emits inline on the calling goroutine. Payload bytes are identical for
// every worker count: nonces are drawn in canonical order during the
// single-threaded planning pass and results land in pre-assigned slots.
func WithWrapWorkers(n int) Option {
	return func(t *Tree) {
		if n < 0 {
			n = 0
		}
		t.wrapWorkers = n
	}
}

// WithPlanner enables the batch placement planner (see planner.go): each
// Rekey simulates anchoring the batch's joiners under interiors its
// departures already dirty and applies that placement when it beats the
// greedy pairing on realized wraps and ExpectedRekeyCost, with greedy as
// the fallback. Planning is deterministic given the tree shape and batch,
// so replayed logs rebuild byte-identical payloads.
func WithPlanner(PlannerConfig) Option {
	return func(t *Tree) { t.planner = true }
}

// PlannerStats counts the batch placement planner's lifetime activity.
type PlannerStats struct {
	// Enabled reports whether the tree runs the planner at all.
	Enabled bool
	// PlannedBatches counts batches where a non-greedy plan won.
	PlannedBatches int
	// GreedyFallbacks counts batches the planner evaluated but kept the
	// greedy plan (dominance guard or scoring).
	GreedyFallbacks int
	// SavedWraps accumulates the simulated multicast wraps saved versus
	// the greedy baseline across all planned batches.
	SavedWraps int
}

// Add merges two counters (multi-tree schemes aggregate across trees).
func (s PlannerStats) Add(o PlannerStats) PlannerStats {
	return PlannerStats{
		Enabled:         s.Enabled || o.Enabled,
		PlannedBatches:  s.PlannedBatches + o.PlannedBatches,
		GreedyFallbacks: s.GreedyFallbacks + o.GreedyFallbacks,
		SavedWraps:      s.SavedWraps + o.SavedWraps,
	}
}

// PlannerStats returns the planner's lifetime counters.
func (t *Tree) PlannerStats() PlannerStats {
	s := t.plannerStats
	s.Enabled = t.planner
	return s
}

// PlannerEnabled reports whether the batch placement planner is active.
func (t *Tree) PlannerEnabled() bool { return t.planner }

// New creates an empty key tree of the given degree (fan-out d ≥ 2).
func New(degree int, opts ...Option) (*Tree, error) {
	if degree < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidDegree, degree)
	}
	t := &Tree{
		degree:  degree,
		leaves:  make(map[MemberID]*Node),
		nextID:  1,
		wrapper: keycrypt.NewWrapper(),
	}
	for _, o := range opts {
		o(t)
	}
	return t, nil
}

// WrapWorkers returns the resolved wrap-emission worker count.
func (t *Tree) WrapWorkers() int {
	if t.wrapWorkers > 0 {
		return t.wrapWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Degree returns the tree fan-out d.
func (t *Tree) Degree() int { return t.degree }

// Size returns the number of members in the tree.
func (t *Tree) Size() int { return len(t.leaves) }

// Root returns the root node, or nil when the tree is empty. When the tree
// hosts a whole group, the root key is the data-encryption key; when it
// hosts a partition, the root key is the partition key.
func (t *Tree) Root() *Node { return t.root }

// RootKey returns the current root key.
func (t *Tree) RootKey() (keycrypt.Key, error) {
	if t.root == nil {
		return keycrypt.Key{}, ErrEmptyTree
	}
	return t.root.key, nil
}

// Stats returns lifetime counters.
func (t *Tree) Stats() Stats { return t.stats }

// RefreshRoot replaces the root key with fresh material at the next
// version without touching the rest of the tree — the primitive behind
// scheduled group-key rotation.
func (t *Tree) RefreshRoot() error {
	if t.root == nil {
		return ErrEmptyTree
	}
	return t.refresh(t.root)
}

// Rand exposes the tree's entropy source so callers can wrap keys with the
// same (possibly deterministic) randomness the tree uses.
func (t *Tree) Rand() io.Reader { return t.gen.Rand }

// Height returns the number of edges on the longest root-to-leaf path.
// An empty tree has height -1; a single leaf has height 0.
func (t *Tree) Height() int {
	return height(t.root)
}

func height(n *Node) int {
	if n == nil {
		return -1
	}
	h := 0
	for _, c := range n.children {
		if ch := height(c) + 1; ch > h {
			h = ch
		}
	}
	return h
}

// Contains reports whether the member is present.
func (t *Tree) Contains(m MemberID) bool {
	_, ok := t.leaves[m]
	return ok
}

// Members returns all member IDs in ascending order, as a fresh slice the
// caller owns.
func (t *Tree) Members() []MemberID {
	return slices.Clone(t.MembersView())
}

// MembersView returns all member IDs in ascending order without copying.
// The slice is shared and read-only. It may outlive the epoch: a later
// Rekey publishes a new list and leaves this one untouched.
func (t *Tree) MembersView() []MemberID {
	if t.members == nil {
		t.members = make([]MemberID, 0, len(t.leaves))
		for m := range t.leaves {
			t.members = append(t.members, m)
		}
		slices.Sort(t.members)
	}
	return t.members
}

// replaceMembers returns old minus gone plus joined in one streaming merge.
// All three are ascending; gone is a subset of old, joined disjoint from it.
func replaceMembers(old, gone, joined []MemberID) []MemberID {
	out := make([]MemberID, 0, len(old)-len(gone)+len(joined))
	for _, m := range old {
		if len(gone) > 0 && gone[0] == m {
			gone = gone[1:]
			continue
		}
		for len(joined) > 0 && joined[0] < m {
			out = append(out, joined[0])
			joined = joined[1:]
		}
		out = append(out, m)
	}
	return append(out, joined...)
}

// Leaf returns the leaf node of a member.
func (t *Tree) Leaf(m MemberID) (*Node, error) {
	n, ok := t.leaves[m]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrMemberUnknown, m)
	}
	return n, nil
}

// Path returns the keys a member holds: its individual key first, then each
// ancestor key up to and including the root.
func (t *Tree) Path(m MemberID) ([]keycrypt.Key, error) {
	if !t.Contains(m) {
		return nil, fmt.Errorf("%w: %d", ErrMemberUnknown, m)
	}
	return AppendPath(t, m, nil, func(k keycrypt.Key) keycrypt.Key { return k }), nil
}

// PathIDs appends the IDs of the keys Path returns, in the same order, to
// buf and returns it; a member the tree does not hold appends nothing.
// Rekey items are addressed by these IDs (see Item.Receivers).
func (t *Tree) PathIDs(m MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID {
	return AppendPath(t, m, buf, func(k keycrypt.Key) keycrypt.KeyID { return k.ID })
}

// AppendPath is the tree's one leaf-to-root walk, behind Path and PathIDs:
// it appends conv of each key member m holds, individual key first, root
// last, to buf. A member the tree does not hold appends nothing.
func AppendPath[T any](t *Tree, m MemberID, buf []T, conv func(keycrypt.Key) T) []T {
	for n := t.leaves[m]; n != nil; n = n.parent {
		buf = append(buf, conv(n.key))
	}
	return buf
}

// freshKey mints a new key for a brand-new slot.
func (t *Tree) freshKey() (keycrypt.Key, error) {
	id := t.nextID
	t.nextID++
	k, err := t.gen.New(id, 0)
	if err != nil {
		return keycrypt.Key{}, fmt.Errorf("%w: %v", ErrExhaustedEntropy, err)
	}
	t.stats.KeysRefreshed++
	return k, nil
}

// refresh replaces a node's key with fresh material at the next version.
func (t *Tree) refresh(n *Node) error {
	k, err := t.gen.Refresh(n.key)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrExhaustedEntropy, err)
	}
	n.key = k
	t.stats.KeysRefreshed++
	return nil
}

// removeLeaf detaches the member's leaf and splices out any interior node
// left with a single child. It returns the lowest surviving ancestor whose
// key set is compromised by the departure (nil when the tree became empty).
// dry is as in place.
func (t *Tree) removeLeaf(m MemberID, dry bool) (*Node, error) {
	leaf, ok := t.leaves[m]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrMemberUnknown, m)
	}
	delete(t.leaves, m)

	parent := leaf.parent
	if parent == nil {
		t.root = nil
		if dry {
			t.undo = append(t.undo, func() {
				t.root = leaf
				t.leaves[m] = leaf
			})
		}
		return nil, nil
	}
	at := removeChild(parent, leaf)
	leaf.parent = nil
	addLeaves(parent, -1)
	if dry {
		t.undo = append(t.undo, func() {
			parent.children = slices.Insert(parent.children, at, leaf)
			leaf.parent = parent
			addLeaves(parent, 1)
			t.leaves[m] = leaf
		})
	}
	if len(parent.children) != 1 {
		return parent, nil
	}
	// Splice: promote the only remaining child into the parent's slot, and
	// fully detach the spliced node — batch processing tests reachability
	// through parent pointers. Logged after the detach above, so a rollback
	// undoes it first and the leaf is re-inserted under a reattached parent.
	kids := parent.children
	only, grand := kids[0], parent.parent
	if dry {
		t.undo = append(t.undo, func() {
			t.replaceNode(grand, only, parent)
			only.parent = parent
			parent.parent, parent.children = grand, kids
		})
	}
	parent.parent, parent.children = nil, nil
	t.replaceNode(grand, parent, only)
	only.parent = grand
	if grand == nil {
		return only, nil
	}
	return grand, nil
}

// rollback undoes the dry run in progress, newest change first.
func (t *Tree) rollback() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	clear(t.undo)
	t.undo = t.undo[:0]
}

// addLeaves adds d to the leaf count of n and of every ancestor of n.
func addLeaves(n *Node, d int) {
	for ; n != nil; n = n.parent {
		n.leaves += d
	}
}

// replaceNode puts new where old hangs: in old's slot among parent's
// children, or at the root when parent is nil.
func (t *Tree) replaceNode(parent, old, new *Node) {
	if parent == nil {
		t.root = new
		return
	}
	replaceChild(parent, old, new)
}

func replaceChild(parent, old, new *Node) {
	for i, c := range parent.children {
		if c == old {
			parent.children[i] = new
			return
		}
	}
	panic("keytree: replaceChild: old node not a child of parent")
}

// removeChild closes child's slot in place and returns the index it held.
func removeChild(parent, child *Node) int {
	for i, c := range parent.children {
		if c == child {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			return i
		}
	}
	panic("keytree: removeChild: node not a child of parent")
}
