package keytree

import (
	"fmt"
	"slices"
	"sort"

	"groupkey/internal/keycrypt"
)

// Batch describes the membership changes accumulated over one rekey
// interval: members joining and members departing. A member must not appear
// twice, nor both join and depart in the same batch (the key server filters
// members whose whole lifetime fits inside one interval — they are never
// admitted).
type Batch struct {
	Joins  []MemberID
	Leaves []MemberID
	// Keys optionally carries a joiner's individual key: its leaf takes
	// that key as it is (ID, version, material) and none is drawn for it.
	// A member keeps its individual key for life, so one moved into this
	// tree from another brings it along.
	Keys map[MemberID]keycrypt.Key
}

// IsEmpty reports whether the batch contains no membership change.
func (b Batch) IsEmpty() bool { return len(b.Joins) == 0 && len(b.Leaves) == 0 }

// ItemKind classifies how a rekey payload item is keyed.
type ItemKind int

const (
	// ChildWrap is an updated key encrypted under one of its children —
	// the departure-driven case of group-oriented rekeying.
	ChildWrap ItemKind = iota + 1
	// OldKeyWrap is an updated key encrypted under its own previous
	// version — the cheap join-only case (one wrap instead of d).
	OldKeyWrap
	// JoinerWrap is a path key encrypted under a joining member's
	// individual key.
	JoinerWrap
	// BlindWrap is an OFT blinded key encrypted under the sibling
	// subtree's computed key (see oft.go).
	BlindWrap
	// LeafRefresh is a fresh OFT leaf secret encrypted under the same
	// leaf's previous secret.
	LeafRefresh
)

// String implements fmt.Stringer.
func (k ItemKind) String() string {
	switch k {
	case ChildWrap:
		return "child-wrap"
	case OldKeyWrap:
		return "oldkey-wrap"
	case JoinerWrap:
		return "joiner-wrap"
	case BlindWrap:
		return "blind-wrap"
	case LeafRefresh:
		return "leaf-refresh"
	default:
		return fmt.Sprintf("ItemKind(%d)", int(k))
	}
}

// Item is one encrypted key in a rekey payload, with the routing metadata
// reliable rekey transport protocols need: which members require it (the
// sparseness property) and how deep the payload key sits in the tree.
type Item struct {
	Wrapped keycrypt.WrappedKey
	Kind    ItemKind
	// Level is the depth of the payload key's node: 0 for the tree root,
	// increasing toward the leaves. Transport protocols weight low-level
	// (close-to-root) keys more heavily because more members need them.
	Level int
	// Receivers addresses the item explicitly: it goes to exactly these
	// members, ascending. JoinerWrap items name their one joiner (or
	// migrant) this way, and OFT's blinded keys, wrapped under a key their
	// readers compute rather than hold, name their subtree. An item
	// without Receivers is path-addressed — every multicast item of a key
	// tree or scheme is: it goes to each member whose key path holds
	// Wrapped.WrapperID, except a member that an explicit item of the same
	// epoch hands the same Wrapped.PayloadID (a batch joiner takes its path
	// keys from its JoinerWrap items). wire.ScopedIndex applies this rule.
	Receivers []MemberID
}

// Payload is the output of one batched rekey operation.
type Payload struct {
	// Epoch is the rekey sequence number, stamped by the key server.
	Epoch uint64
	// Items are the multicast rekey items: child wraps and old-key wraps
	// for current members, path-addressed (see Item.Receivers).
	Items []Item
	// JoinerItems carry the full key path to each joining member, wrapped
	// under its individual key. Depending on deployment these ride the same
	// multicast message (as in Wong et al.'s group-oriented rekeying) or go
	// out by unicast; they are kept separate so experiments can count
	// multicast bandwidth the way the paper's analytic model does.
	JoinerItems []Item
	// Placement records the structural decisions this rekey realized:
	// which joiner took which departure hole, which holes were removed,
	// and where surplus joiners attached. It never rides the wire; tests
	// and experiments use it to assert the realized placement matches the
	// chosen plan.
	Placement Placement
	// Pending holds the wraps an Advance left unsealed, nonces not yet
	// drawn: until Seal runs them, Items and JoinerItems carry their kind
	// and level but a zero Wrapped. Rekey seals before it returns.
	Pending PendingWraps
}

// Seal runs the payload's pending wraps into its items (see
// PendingWraps.Seal). A sealed payload seals again as a no-op.
func (p *Payload) Seal() error { return p.Pending.Seal(p.Items, p.JoinerItems) }

// MulticastKeyCount is the number of encrypted keys multicast to current
// members — the "rekeying cost (#keys)" metric of the paper's figures.
func (p *Payload) MulticastKeyCount() int { return len(p.Items) }

// TotalKeyCount counts every encrypted key including joiner path deliveries.
func (p *Payload) TotalKeyCount() int { return len(p.Items) + len(p.JoinerItems) }

// AllItems returns multicast items followed by joiner items.
func (p *Payload) AllItems() []Item {
	out := make([]Item, 0, len(p.Items)+len(p.JoinerItems))
	out = append(out, p.Items...)
	out = append(out, p.JoinerItems...)
	return out
}

// dirtyInfo tracks why a node needs redistribution during a batch.
type dirtyInfo struct {
	// departure is true when a member that knew this key departed (or was
	// replaced), forcing d child wraps. False means join-only taint.
	departure bool
	// oldKey is the node's key before the batch, used for OldKeyWrap.
	oldKey keycrypt.Key
	// isNew marks interior nodes created during this batch (leaf splits);
	// they have no previous version and no prior holders.
	isNew bool
}

// Rekey applies a batch of membership changes and produces the rekey
// payload under group-oriented rekeying:
//
//   - Joins are paired with departures first, so joiners fill vacated leaf
//     slots and the tree shape stays balanced (the J=L regime analyzed in
//     the paper's Appendix A). Surplus joins grow the tree; surplus
//     departures shrink it.
//   - Every key known to a departed member is refreshed and re-encrypted
//     under each of its surviving children.
//   - Keys tainted only by joins are refreshed and encrypted once under
//     their own previous version.
//   - Each joiner additionally receives its whole key path wrapped under
//     its individual key.
//
// Rekey mutates the tree. A batch that fails validation leaves it
// unchanged; an entropy failure part-way leaves a well-formed tree with the
// batch partly applied, or, in the nonce draw, wholly applied.
//
// When WithPlanner is set, the placement (which joiner takes which hole,
// where surplus joiners attach) comes from the batch planner; otherwise
// the greedy pairing above is applied verbatim. Either way the plan is a
// deterministic function of the tree shape and the batch, so payload bytes
// replay identically.
//
// Rekey is Advance followed by the payload's Seal.
func (t *Tree) Rekey(b Batch) (*Payload, error) {
	p, err := t.Advance(b)
	if err != nil {
		return nil, err
	}
	if err := p.Seal(); err != nil {
		return nil, err
	}
	return p, nil
}

// Advance is Rekey without the AES-GCM step: it places the batch, draws
// every key in Rekey's order, builds the items and counts them, and leaves
// the wraps pending on the payload. The tree ends in exactly the state
// Rekey leaves. The payload's Seal draws the wraps' nonces, so Seal run
// right after Advance, on the same entropy stream, makes it
// byte-identical to Rekey's.
func (t *Tree) Advance(b Batch) (*Payload, error) {
	if err := t.validateBatch(b); err != nil {
		return nil, err
	}
	plan, greedyWraps := t.plan(b)
	p, err := t.applyPlan(b, plan)
	if err != nil {
		// The batch may be partly applied: forget the maintained list, so
		// the next use rebuilds it from the tree.
		t.members = nil
		return nil, err
	}
	// Counted here, not in plan, so a PlanBatch preview is not counted.
	switch {
	case plan.Planned:
		t.plannerStats.PlannedBatches++
		t.plannerStats.SavedWraps += greedyWraps - plan.PredictedWraps
	case plan.PredictedWraps >= 0:
		t.plannerStats.GreedyFallbacks++
	}
	return p, nil
}

// validatePlan checks a plan is a well-formed placement of the batch:
// every joiner placed exactly once and every hole consumed exactly once
// (filled or removed).
func (t *Tree) validatePlan(b Batch, p Plan) error {
	holes := make(map[MemberID]bool, len(b.Leaves))
	for _, m := range b.Leaves {
		holes[m] = false
	}
	joiners := make(map[MemberID]bool, len(b.Joins))
	for _, m := range b.Joins {
		joiners[m] = false
	}
	takeHole := func(m MemberID) error {
		used, ok := holes[m]
		if !ok {
			return fmt.Errorf("%w: plan references non-hole %d", ErrInvalidPlan, m)
		}
		if used {
			return fmt.Errorf("%w: hole %d assigned twice", ErrInvalidPlan, m)
		}
		holes[m] = true
		return nil
	}
	takeJoiner := func(m MemberID) error {
		used, ok := joiners[m]
		if !ok {
			return fmt.Errorf("%w: plan places non-joiner %d", ErrInvalidPlan, m)
		}
		if used {
			return fmt.Errorf("%w: joiner %d placed twice", ErrInvalidPlan, m)
		}
		joiners[m] = true
		return nil
	}
	for _, f := range p.Fills {
		if err := takeHole(f.Hole); err != nil {
			return err
		}
		if err := takeJoiner(f.Joiner); err != nil {
			return err
		}
	}
	for _, m := range p.Removals {
		if err := takeHole(m); err != nil {
			return err
		}
	}
	for _, g := range p.Grows {
		if err := takeJoiner(g.Joiner); err != nil {
			return err
		}
	}
	for m, used := range holes {
		if !used {
			return fmt.Errorf("%w: hole %d never consumed", ErrInvalidPlan, m)
		}
	}
	for m, used := range joiners {
		if !used {
			return fmt.Errorf("%w: joiner %d never placed", ErrInvalidPlan, m)
		}
	}
	return nil
}

// place runs the structural phases of a rekey — fills, removals, grows, in
// plan order. It fills dirty, the caller's empty map (the caller's so that
// Rekey's stays off the heap), with the set they leave, pruned to the
// interiors still in the tree, and returns where each surplus joiner
// attached. A joiner's leaf takes the key keys carries for it (Batch.Keys).
//
// A dry run is the planner's simulation: the same code moves the same nodes,
// but draws no key and places no carried one (new nodes carry the zero key,
// so neither entropy nor nextID is consumed), leaves stats, the maintained
// member list, every existing key and the key-schedule cache alone, and logs
// the inverse of each structural change for rollback. A real run drops the
// cached schedule of every key it retires: a filled hole's leaf key, a
// removed leaf's, a spliced interior's. A pending seal that still wraps
// under one rebuilds the schedule from the key its job holds.
func (t *Tree) place(plan Plan, keys map[MemberID]keycrypt.Key, dirty map[*Node]*dirtyInfo, dry bool) ([]Growth, error) {
	mark := func(n *Node, departure bool) {
		for ; n != nil; n = n.parent {
			info, ok := dirty[n]
			if !ok {
				info = &dirtyInfo{}
				dirty[n] = info
				if !dry {
					info.oldKey = n.key
				}
			}
			info.departure = info.departure || departure
		}
	}

	// Phase 1: fills — joiners take the chosen departure holes.
	for _, f := range plan.Fills {
		leaf := t.leaves[f.Hole]
		if dry {
			t.undo = append(t.undo, func() {
				delete(t.leaves, f.Joiner)
				leaf.member = f.Hole
				t.leaves[f.Hole] = leaf
			})
		} else {
			fresh, err := t.leafKey(f.Joiner, keys, false)
			if err != nil {
				return nil, err
			}
			t.wrapper.Invalidate(leaf.key.ID) // the departed member's leaf key
			leaf.key = fresh
			t.stats.Joins++
			t.stats.Departures++
		}
		delete(t.leaves, f.Hole)
		leaf.member = f.Joiner
		t.leaves[f.Joiner] = leaf
		mark(leaf.parent, true)
	}

	// Phase 2: surplus departures shrink the tree.
	for _, m := range plan.Removals {
		anc, err := t.removeLeaf(m, dry)
		if err != nil {
			return nil, err // unreachable: the batch and plan are validated
		}
		mark(anc, true)
		if !dry {
			t.stats.Departures++
		}
	}

	// Phase 3: surplus joins grow the tree, at the planned anchors or by
	// least-leaves descent.
	var byKeyID map[keycrypt.KeyID]*Node
	grown := make([]Growth, 0, len(plan.Grows))
	for _, g := range plan.Grows {
		from := t.root
		if g.Anchor != 0 {
			if byKeyID == nil {
				// Anchors are interiors the batch's departures dirtied
				// (anchorPlan picks from nothing else), so the dirty set is
				// the whole index; any other key ID is an invalid plan.
				byKeyID = make(map[keycrypt.KeyID]*Node, len(dirty))
				for n := range dirty {
					if !n.IsLeaf() {
						byKeyID[n.key.ID] = n
					}
				}
			}
			from = byKeyID[g.Anchor]
			if from == nil || !t.attached(from) || len(from.children) >= t.degree {
				return nil, fmt.Errorf("%w: anchor %v unusable for joiner %d", ErrInvalidPlan, g.Anchor, g.Joiner)
			}
		}
		key, err := t.leafKey(g.Joiner, keys, dry)
		if err != nil {
			return nil, err
		}
		leaf, created, err := t.insertLeaf(g.Joiner, key, from, dry)
		if err != nil {
			return nil, err
		}
		if created != nil {
			dirty[created] = &dirtyInfo{isNew: true, departure: true}
			mark(created.parent, false)
		} else {
			mark(leaf.parent, false)
		}
		if !dry {
			t.stats.Joins++
		}
		var parentID keycrypt.KeyID
		if leaf.parent != nil {
			parentID = leaf.parent.key.ID
		}
		grown = append(grown, Growth{Joiner: g.Joiner, Anchor: parentID})
	}

	// Prune dirty entries for nodes spliced out of the tree by removals.
	for n := range dirty {
		if !t.attached(n) || n.IsLeaf() {
			delete(dirty, n)
		}
	}
	return grown, nil
}

// applyPlan executes a validated placement through the historical rekey
// phases. Fills, removals, and grows run in plan order, so when the
// plan is greedyPlan(b) the entropy draws — and therefore the payload
// bytes — are identical to the pre-planner implementation.
func (t *Tree) applyPlan(b Batch, plan Plan) (*Payload, error) {
	if err := t.validatePlan(b, plan); err != nil {
		return nil, err
	}
	dirty := make(map[*Node]*dirtyInfo)
	grown, err := t.place(plan, b.Keys, dirty, false)
	if err != nil {
		return nil, err
	}

	// Phase 4: refresh all pre-existing dirty keys, in key-ID order. Map
	// iteration order would assign entropy to nodes differently on every
	// run, making rekeys irreproducible under a deterministic reader.
	refreshing := make([]*Node, 0, len(dirty))
	for n, info := range dirty {
		if !info.isNew {
			refreshing = append(refreshing, n)
		}
	}
	sort.Slice(refreshing, func(i, j int) bool { return refreshing[i].key.ID < refreshing[j].key.ID })
	for _, n := range refreshing {
		if err := t.refresh(n); err != nil {
			return nil, err
		}
	}

	// Phases 5–6: plan the payload. The engine plans wrap jobs on this
	// goroutine; the payload's Seal draws their nonces in canonical order
	// and fans the AES-GCM work over a bounded pool.
	joined := slices.Clone(b.Joins)
	slices.Sort(joined)
	p := t.emitPlanned(dirty, joined)
	if t.members != nil && !b.IsEmpty() {
		gone := slices.Clone(b.Leaves)
		slices.Sort(gone)
		t.members = replaceMembers(t.members, gone, joined)
	}

	p.Placement = Placement{
		Fills:          plan.Fills,
		Removed:        plan.Removals,
		Grown:          grown,
		Planned:        plan.Planned,
		PredictedWraps: plan.PredictedWraps,
	}

	t.stats.KeysWrapped += p.TotalKeyCount()
	t.stats.Rekeys++
	return p, nil
}

// Join admits a single member immediately (non-batched rekeying). It is a
// convenience wrapper around Rekey.
func (t *Tree) Join(m MemberID) (*Payload, error) {
	return t.Rekey(Batch{Joins: []MemberID{m}})
}

// Leave evicts a single member immediately (non-batched rekeying).
func (t *Tree) Leave(m MemberID) (*Payload, error) {
	return t.Rekey(Batch{Leaves: []MemberID{m}})
}

func (t *Tree) validateBatch(b Batch) error {
	seen := make(map[MemberID]bool, len(b.Joins)+len(b.Leaves))
	for _, m := range b.Joins {
		if m == 0 {
			return ErrZeroMember
		}
		if seen[m] {
			return fmt.Errorf("%w: member %d listed twice", ErrBatchConflict, m)
		}
		seen[m] = true
		if t.Contains(m) {
			return fmt.Errorf("%w: %d", ErrMemberExists, m)
		}
	}
	for _, m := range b.Leaves {
		if m == 0 {
			return ErrZeroMember
		}
		if seen[m] {
			return fmt.Errorf("%w: member %d both joins and leaves", ErrBatchConflict, m)
		}
		seen[m] = true
		if !t.Contains(m) {
			return fmt.Errorf("%w: %d", ErrMemberUnknown, m)
		}
	}
	for m := range b.Keys {
		if !seen[m] || t.Contains(m) {
			return fmt.Errorf("%w: key carried for non-joiner %d", ErrBatchConflict, m)
		}
	}
	return nil
}

// insertLeaf gives member m a new leaf, keyed with key, by least-leaves
// descent from the given node: past full interiors to the first underfull
// one, which takes the leaf as one more child, or down to a leaf, which is
// split — the interior the split creates is returned too. A planned anchor
// is underfull, so the leaf attaches directly under it; a nil start is the
// empty tree. dry is as in place.
func (t *Tree) insertLeaf(m MemberID, key keycrypt.Key, from *Node, dry bool) (leaf, created *Node, err error) {
	leaf = &Node{key: key, member: m, leaves: 1}

	n := t.leastLoaded(from)
	switch {
	case n == nil:
		t.root = leaf
		if dry {
			t.undo = append(t.undo, func() {
				t.root = nil
				delete(t.leaves, m)
			})
		}
	case n.IsLeaf():
		interiorKey, err := t.slotKey(dry)
		if err != nil {
			return nil, nil, err
		}
		interior := &Node{key: interiorKey, parent: n.parent, children: []*Node{n, leaf}, leaves: n.leaves + 1}
		t.replaceNode(n.parent, n, interior)
		n.parent, leaf.parent = interior, interior
		addLeaves(interior.parent, 1)
		if dry {
			t.undo = append(t.undo, func() {
				n.parent = interior.parent
				t.replaceNode(n.parent, interior, n)
				addLeaves(n.parent, -1)
				delete(t.leaves, m)
			})
		}
		created = interior
	default:
		if dry {
			kids := n.children
			t.undo = append(t.undo, func() {
				n.children = kids
				addLeaves(n, -1)
				delete(t.leaves, m)
			})
		}
		leaf.parent = n
		n.children = append(n.children, leaf)
		addLeaves(n, 1)
	}
	t.leaves[m] = leaf
	return leaf, created, nil
}

// leastLoaded descends from n past full interiors, each time into the child
// with the fewest leaves (the first such on a tie), and returns the first
// node that is not one: an underfull interior, a leaf, or nil for nil.
func (t *Tree) leastLoaded(n *Node) *Node {
	for n != nil && len(n.children) >= t.degree {
		best := n.children[0]
		for _, c := range n.children[1:] {
			if c.leaves < best.leaves {
				best = c
			}
		}
		n = best
	}
	return n
}

// slotKey keys a slot the placement creates. A dry run gets the zero key: it
// draws no entropy and consumes no key ID.
func (t *Tree) slotKey(dry bool) (keycrypt.Key, error) {
	if dry {
		return keycrypt.Key{}, nil
	}
	return t.freshKey()
}

// leafKey keys joiner m's leaf: the key the batch carries for it, else a
// new one (slotKey).
func (t *Tree) leafKey(m MemberID, keys map[MemberID]keycrypt.Key, dry bool) (keycrypt.Key, error) {
	if k, ok := keys[m]; ok && !dry {
		return k, nil
	}
	return t.slotKey(dry)
}

// attached reports whether n is still reachable from the tree root.
func (t *Tree) attached(n *Node) bool {
	for ; n != nil; n = n.parent {
		if n == t.root {
			return true
		}
	}
	return false
}
