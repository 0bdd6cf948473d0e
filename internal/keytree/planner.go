package keytree

import (
	"sort"

	"groupkey/internal/analytic"
	"groupkey/internal/keycrypt"
)

// This file implements the per-batch placement planner. The greedy policy
// pairs joiners with departure holes in batch order and grows the tree by
// least-leaves descent. The planner adds one candidate to that baseline:
// anchor joiners under interior nodes the batch's departures already dirty.
// A departure-dirty interior pays its child wraps whatever the placement,
// and a child holding only joiners is never multicast, so such attachments
// cost no extra wrap this batch while packing the tree. The candidate and
// the greedy baseline are both simulated on a lightweight shadow copy of
// the tree; the candidate is applied only when it dominates greedy on both
// the realized multicast wrap count and the post-batch ExpectedRekeyCost —
// the DC-programming relaxation of arXiv:2305.10131 restricted to the
// batch's own decision variables. Planning is a pure function of the tree
// shape and the batch: it draws no entropy and reads no clocks, so WAL
// replay and cluster replication reproduce every decision byte-identically.

// PlannerConfig is the argument of WithPlanner. The planner has no
// settings — it is on or off — so the struct has no fields.
type PlannerConfig struct{}

// Assignment pairs a departure hole (the leaf slot a departing member
// vacates) with the joiner that takes it over.
type Assignment struct {
	Hole   MemberID
	Joiner MemberID
}

// Growth places one joiner as a fresh leaf. Anchor is the key ID of the
// interior node the new leaf attaches under; 0 means least-leaves descent
// (the greedy insertion policy).
type Growth struct {
	Joiner MemberID
	Anchor keycrypt.KeyID
}

// Plan is a complete placement decision for one batch. Every departure
// hole appears in exactly one of Fills or Removals; every joiner appears
// in exactly one of Fills or Grows.
type Plan struct {
	Fills    []Assignment
	Removals []MemberID
	Grows    []Growth
	// Planned is true when the planner chose a non-greedy candidate.
	Planned bool
	// PredictedWraps is the simulated multicast wrap count for this plan,
	// or -1 when the batch was applied without simulation. When ≥ 0 it
	// must equal the realized Payload.MulticastKeyCount().
	PredictedWraps int
	// PredictedCost is the simulated post-batch ExpectedRekeyCost (0 when
	// not simulated).
	PredictedCost float64
}

// Placement records the structural decisions one Rekey realized, so tests
// and the planner's own differential harness can assert that the applied
// tree mutation matches the chosen plan. Grown carries the key ID of the
// parent each surplus joiner actually attached under (for descent
// insertions this is the resolved parent, possibly a split-created
// interior; 0 means the joiner became the root).
type Placement struct {
	Fills          []Assignment
	Removed        []MemberID
	Grown          []Growth
	Planned        bool
	PredictedWraps int
}

// greedyPlan reproduces the historical pairing exactly: b.Joins[i] takes
// b.Leaves[i]'s slot, surplus departures are removed in batch order, and
// surplus joins grow the tree by least-leaves descent.
func greedyPlan(b Batch) Plan {
	pairs := min(len(b.Joins), len(b.Leaves))
	p := Plan{PredictedWraps: -1}
	if pairs > 0 {
		p.Fills = make([]Assignment, pairs)
		for i := 0; i < pairs; i++ {
			p.Fills[i] = Assignment{Hole: b.Leaves[i], Joiner: b.Joins[i]}
		}
	}
	p.Removals = b.Leaves[pairs:]
	if surplus := b.Joins[pairs:]; len(surplus) > 0 {
		p.Grows = make([]Growth, len(surplus))
		for i, m := range surplus {
			p.Grows[i] = Growth{Joiner: m}
		}
	}
	return p
}

// PlanBatch returns the placement the next Rekey of this batch would
// realize, without mutating the tree or its counters: the planner's choice
// when WithPlanner is set, the greedy pairing otherwise. Planning is
// deterministic, so a following Rekey applies exactly this plan.
func (t *Tree) PlanBatch(b Batch) (Plan, error) {
	if err := t.validateBatch(b); err != nil {
		return Plan{}, err
	}
	p, _ := t.plan(b)
	return p, nil
}

// costEps is the relative tolerance for expected-cost comparisons between
// simulated candidates (the sums are floating-point walks over identical
// node sets, so ordering noise is far below this).
func costEps(c float64) float64 {
	if c < 0 {
		c = -c
	}
	return 1e-9 * (1 + c)
}

// plan picks the batch's placement and reports the simulated greedy wrap
// count it was measured against (meaningful when PredictedWraps ≥ 0). It
// simulates the greedy baseline and the anchor candidate, admits the
// candidate only when it dominates greedy on both the realized wrap count
// and the post-batch expected cost and improves their sum, and otherwise
// returns greedy itself.
func (t *Tree) plan(b Batch) (Plan, int) {
	g := greedyPlan(b)
	j, l := len(b.Joins), len(b.Leaves)
	// With J == L every hole is filled and nothing grows or shrinks: the
	// only freedom is which joiner takes which hole, which changes neither
	// wraps nor shape. Without departures nothing is dirty to anchor under,
	// and without joiners there is nothing to anchor.
	if !t.planner || t.root == nil || j == l || j == 0 || l == 0 {
		return g, 0
	}
	c, ok := t.anchorPlan(b)
	if !ok {
		return g, 0
	}
	gs := t.simulate(b, g)
	g.PredictedWraps, g.PredictedCost = gs.wraps, gs.cost
	s := t.simulate(b, c)
	if s.invalid || s.wraps > gs.wraps || s.cost > gs.cost+costEps(gs.cost) ||
		s.score() >= gs.score()-1e-12 {
		return g, gs.wraps // inadmissible, or dominates greedy without beating it
	}
	c.Planned = true
	c.PredictedWraps, c.PredictedCost = s.wraps, s.cost
	return c, gs.wraps
}

// anchorPlan builds the batch's one non-greedy candidate: joiners attach
// as fresh leaves under underfull interiors the batch's departures dirty.
//
//   - J > L: every hole is filled as greedy would, and the surplus joiners
//     go under the holes' ancestors, deepest first, instead of descending
//     to the least-loaded slot (which taints a clean path).
//   - L > J: every hole is removed rather than J of them filled in place —
//     letting hollowed-out regions splice whole subtrees away — and all J
//     joiners go under the removals' surviving ancestors, shallowest first,
//     for the shortest joiner paths the already-paid dirty set allows.
//
// Joiners the anchors cannot hold fall back to descent. ok is false when
// the batch dirties no usable anchor.
func (t *Tree) anchorPlan(b Batch) (p Plan, ok bool) {
	grow := len(b.Joins) > len(b.Leaves)
	// Replay the removals on a scratch copy so candidate anchors are
	// interiors that provably survive every cascaded splice.
	st := newSimTree(t, false)
	dirty := make(map[*simNode]bool)
	var joiners []MemberID
	if grow {
		p = greedyPlan(b)
		joiners = b.Joins[len(b.Leaves):]
		for _, m := range b.Leaves {
			for n := st.leaves[m].parent; n != nil; n = n.parent {
				dirty[n] = true
			}
		}
	} else {
		p = Plan{Removals: b.Leaves, PredictedWraps: -1}
		joiners = b.Joins
		for _, m := range b.Leaves {
			for n := st.removeLeaf(m); n != nil; n = n.parent {
				dirty[n] = true
			}
		}
	}

	type anchorInfo struct {
		keyID keycrypt.KeyID
		depth int
		spare int
	}
	var anchors []anchorInfo
	for n := range dirty {
		if n.member != 0 || len(n.children) >= st.degree || !st.attached(n) {
			continue // a leaf, full, or spliced away by a later removal
		}
		a := anchorInfo{keyID: n.keyID, spare: st.degree - len(n.children)}
		for up := n.parent; up != nil; up = up.parent {
			a.depth++
		}
		anchors = append(anchors, a)
	}
	if len(anchors) == 0 {
		return Plan{}, false
	}
	sort.Slice(anchors, func(x, y int) bool {
		if anchors[x].depth != anchors[y].depth {
			return (anchors[x].depth > anchors[y].depth) == grow
		}
		return anchors[x].keyID < anchors[y].keyID
	})

	p.Grows = make([]Growth, 0, len(joiners))
	for _, a := range anchors {
		for ; a.spare > 0 && len(p.Grows) < len(joiners); a.spare-- {
			p.Grows = append(p.Grows, Growth{Joiner: joiners[len(p.Grows)], Anchor: a.keyID})
		}
	}
	for _, m := range joiners[len(p.Grows):] {
		p.Grows = append(p.Grows, Growth{Joiner: m}) // descent
	}
	return p, true
}

// --- shadow simulation -------------------------------------------------

// simNode mirrors the structural fields of Node: shape, membership and
// subtree leaf counts, plus the key ID for anchor resolution. Keys are
// never materialized — the simulator predicts wrap counts and expected
// cost, not bytes.
type simNode struct {
	parent   *simNode
	children []*simNode
	member   MemberID
	leaves   int
	keyID    keycrypt.KeyID
}

// simTree is the planner's scratch copy of a Tree. One clone is built per
// simulated candidate and mutated through the exact phases Rekey applies.
type simTree struct {
	degree int
	root   *simNode
	leaves map[MemberID]*simNode
	byKey  map[keycrypt.KeyID]*simNode
	size   int
}

func newSimTree(t *Tree, needAnchors bool) *simTree {
	st := &simTree{
		degree: t.degree,
		leaves: make(map[MemberID]*simNode, len(t.leaves)),
		size:   len(t.leaves),
	}
	if needAnchors {
		st.byKey = make(map[keycrypt.KeyID]*simNode)
	}
	st.root = st.clone(t.root, nil)
	return st
}

func (st *simTree) clone(n *Node, parent *simNode) *simNode {
	if n == nil {
		return nil
	}
	s := &simNode{parent: parent, member: n.member, leaves: n.leaves, keyID: n.key.ID}
	if n.member != 0 {
		st.leaves[n.member] = s
	}
	if st.byKey != nil {
		st.byKey[n.key.ID] = s
	}
	if len(n.children) > 0 {
		s.children = make([]*simNode, len(n.children))
		for i, c := range n.children {
			s.children[i] = st.clone(c, s)
		}
	}
	return s
}

// removeLeaf mirrors Tree.removeLeaf: detach the leaf, splice any interior
// left with one child (fully detaching the spliced node), and return the
// lowest surviving compromised ancestor.
func (st *simTree) removeLeaf(m MemberID) *simNode {
	leaf := st.leaves[m]
	delete(st.leaves, m)
	st.size--
	parent := leaf.parent
	if parent == nil {
		st.root = nil
		return nil
	}
	for i, c := range parent.children {
		if c == leaf {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			break
		}
	}
	leaf.parent = nil
	for p := parent; p != nil; p = p.parent {
		p.leaves--
	}
	if len(parent.children) == 1 {
		only := parent.children[0]
		grand := parent.parent
		parent.parent, parent.children = nil, nil
		if grand == nil {
			only.parent = nil
			st.root = only
			return only
		}
		for i, c := range grand.children {
			if c == parent {
				grand.children[i] = only
				break
			}
		}
		only.parent = grand
		return grand
	}
	return parent
}

// attached mirrors Tree.attached.
func (st *simTree) attached(n *simNode) bool {
	for ; n != nil; n = n.parent {
		if n == st.root {
			return true
		}
	}
	return false
}

// simResult is one candidate's predicted outcome. invalid marks a plan
// applyPlan would reject — an anchored grow whose anchor was spliced
// away or filled by an earlier phase of the same plan.
type simResult struct {
	wraps   int
	cost    float64
	invalid bool
}

// simInfo mirrors dirtyInfo's structural flags.
type simInfo struct {
	departure bool
	isNew     bool
}

// score folds a simulation into a single objective: wraps this batch plus
// the expected wraps of a future batch with as many departures.
func (s simResult) score() float64 { return float64(s.wraps) + s.cost }

// simulate applies a plan to a shadow copy of the tree through the exact
// phases Rekey uses — fills, removals, grows, dirty pruning — and returns
// the multicast wrap count the real emitters would produce plus the
// post-batch ExpectedRekeyCost for a batch of len(b.Leaves) departures.
// Keeping this mirror exact is load-bearing: FuzzPlanBatch and the
// determinism suite assert predicted == realized on every planned batch.
func (t *Tree) simulate(b Batch, p Plan) simResult {
	needAnchors := false
	for _, g := range p.Grows {
		if g.Anchor != 0 {
			needAnchors = true
			break
		}
	}
	st := newSimTree(t, needAnchors)

	dirty := make(map[*simNode]*simInfo)
	joiners := make(map[MemberID]bool, len(b.Joins))
	for _, m := range b.Joins {
		joiners[m] = true
	}
	mark := func(n *simNode, departure bool) {
		for ; n != nil; n = n.parent {
			info, ok := dirty[n]
			if !ok {
				info = &simInfo{}
				dirty[n] = info
			}
			info.departure = info.departure || departure
		}
	}

	for _, f := range p.Fills {
		leaf := st.leaves[f.Hole]
		delete(st.leaves, f.Hole)
		leaf.member = f.Joiner
		st.leaves[f.Joiner] = leaf
		mark(leaf.parent, true)
	}
	for _, m := range p.Removals {
		mark(st.removeLeaf(m), true)
	}
	for _, g := range p.Grows {
		st.size++
		leaf := &simNode{member: g.Joiner, leaves: 1}
		st.leaves[g.Joiner] = leaf
		if g.Anchor != 0 {
			// Mirror applyPlan's anchor validation: earlier phases of this
			// same plan (a removal splice, prior grows) can detach or fill
			// the anchor the candidate generator saw.
			anchor := st.byKey[g.Anchor]
			if anchor == nil || !st.attached(anchor) || len(anchor.children) >= st.degree {
				return simResult{invalid: true}
			}
			leaf.parent = anchor
			anchor.children = append(anchor.children, leaf)
			for p := anchor; p != nil; p = p.parent {
				p.leaves++
			}
			mark(anchor, false)
			continue
		}
		st.growDescend(leaf, dirty, mark)
	}

	for n := range dirty {
		if !st.attached(n) || len(n.children) == 0 {
			delete(dirty, n)
		}
	}

	nonJoiner := make(map[*simNode]int)
	var countNonJoiner func(n *simNode) int
	countNonJoiner = func(n *simNode) int {
		if c, ok := nonJoiner[n]; ok {
			return c
		}
		c := 0
		if n.member != 0 {
			if !joiners[n.member] {
				c = 1
			}
		} else {
			for _, ch := range n.children {
				c += countNonJoiner(ch)
			}
		}
		nonJoiner[n] = c
		return c
	}

	wraps := 0
	for n, info := range dirty {
		if info.departure || info.isNew {
			for _, c := range n.children {
				if countNonJoiner(c) > 0 {
					wraps++
				}
			}
		} else if countNonJoiner(n) > 0 {
			wraps++
		}
	}

	return simResult{wraps: wraps, cost: st.expectedCost(len(b.Leaves))}
}

// growDescend mirrors insertLeafTracked for an already-allocated sim leaf:
// attach at an underfull interior reached by least-leaves descent, or
// split a leaf into a new interior (marked new + departure, its ancestors
// join-tainted).
func (st *simTree) growDescend(leaf *simNode, dirty map[*simNode]*simInfo, mark func(*simNode, bool)) {
	if st.root == nil {
		st.root = leaf
		return
	}
	n := st.root
	for {
		if len(n.children) == 0 && n.member != 0 {
			interior := &simNode{parent: n.parent, children: []*simNode{n, leaf}, leaves: n.leaves + 1}
			if n.parent == nil {
				st.root = interior
			} else {
				for i, c := range n.parent.children {
					if c == n {
						n.parent.children[i] = interior
						break
					}
				}
			}
			n.parent = interior
			leaf.parent = interior
			for p := interior.parent; p != nil; p = p.parent {
				p.leaves++
			}
			dirty[interior] = &simInfo{isNew: true, departure: true}
			mark(interior.parent, false)
			return
		}
		if len(n.children) < st.degree {
			leaf.parent = n
			n.children = append(n.children, leaf)
			for p := n; p != nil; p = p.parent {
				p.leaves++
			}
			mark(n, false)
			return
		}
		best := n.children[0]
		for _, c := range n.children[1:] {
			if c.leaves < best.leaves {
				best = c
			}
		}
		n = best
	}
}

// expectedCost mirrors Tree.ExpectedRekeyCost on the shadow tree.
func (st *simTree) expectedCost(l int) float64 {
	n := float64(st.size)
	if n <= 1 || l <= 0 {
		return 0
	}
	lf := float64(l)
	if lf > n {
		lf = n
	}
	total := 0.0
	var visit func(v *simNode)
	visit = func(v *simNode) {
		if len(v.children) == 0 {
			return
		}
		pUpdate := 1 - analytic.ChooseRatio(n, float64(v.leaves), lf)
		for _, c := range v.children {
			contribution := pUpdate - analytic.AllChosenProb(n, float64(c.leaves), lf)
			if contribution > 0 {
				total += contribution
			}
			visit(c)
		}
	}
	visit(st.root)
	return total
}
