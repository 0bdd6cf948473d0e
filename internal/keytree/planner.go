package keytree

import (
	"sort"

	"groupkey/internal/keycrypt"
)

// This file implements the per-batch placement planner. The greedy policy
// pairs joiners with departure holes in batch order and grows the tree by
// least-leaves descent. The planner adds one candidate to that baseline:
// anchor joiners under interior nodes the batch's departures already dirty.
// A departure-dirty interior pays its child wraps whatever the placement,
// and a child holding only joiners is never multicast, so such attachments
// cost no extra wrap this batch while packing the tree. The candidate and
// the greedy baseline are both dry-run on the tree itself: place, the code
// Rekey places a batch with, runs in a mode that draws no key, touches no
// counter and logs the inverse of every structural change, the wrap count
// and the ExpectedRekeyCost are read off the result, and rollback replays
// the log. The candidate is applied only when it dominates greedy on both
// the realized multicast wrap count and the post-batch ExpectedRekeyCost —
// the DC-programming relaxation of arXiv:2305.10131 restricted to the
// batch's own decision variables. A dry run leaves shape, child order, leaf
// map, key IDs, counters, cached lists and the entropy stream exactly as
// found (TestPlanBatchRestoresTree), and costs O((J+L)·depth·d) plus one
// read-only walk of the tree. Planning is a pure function of the tree shape
// and the batch: it draws no entropy and reads no clocks, so WAL replay and
// cluster replication reproduce every decision byte-identically.

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
	// not simulated). When PredictedWraps ≥ 0 it must equal, exactly, the
	// tree's ExpectedRekeyCost(len(b.Leaves)) after the Rekey.
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
// realize: the planner's choice when WithPlanner is set, the greedy pairing
// otherwise. The tree and its counters are as they were when it returns,
// but the planner's dry runs mutate the tree in between, so PlanBatch must
// not run beside any other use of the tree. Planning is deterministic, so a
// following Rekey applies exactly this plan.
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
	type anchorInfo struct {
		keyID keycrypt.KeyID
		depth int
		spare int
	}
	var anchors []anchorInfo
	consider := func(n *Node) {
		if spare := t.degree - len(n.children); spare > 0 {
			anchors = append(anchors, anchorInfo{keyID: n.key.ID, depth: n.Depth(), spare: spare})
		}
	}

	grow := len(b.Joins) > len(b.Leaves)
	var joiners []MemberID
	if grow {
		// Fills move no node: the holes' ancestors are read off the tree.
		p = greedyPlan(b)
		joiners = b.Joins[len(b.Leaves):]
		seen := make(map[*Node]bool)
		for _, m := range b.Leaves {
			for n := t.leaves[m].parent; n != nil && !seen[n]; n = n.parent {
				seen[n] = true
				consider(n)
			}
		}
	} else {
		// Dry-run the removals, so candidate anchors are interiors that
		// provably survive every cascaded splice, at their depth after it.
		p = Plan{Removals: b.Leaves, PredictedWraps: -1}
		joiners = b.Joins
		dirty := make(map[*Node]*dirtyInfo)
		if _, err := t.place(p, dirty, true); err == nil { // removals of validated members cannot fail
			for n := range dirty {
				consider(n)
			}
		}
		t.rollback()
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

// simResult is one candidate's predicted outcome. invalid marks a plan
// applyPlan would reject — an anchored grow whose anchor was spliced
// away or filled by an earlier phase of the same plan.
type simResult struct {
	wraps   int
	cost    float64
	invalid bool
}

// score folds a simulation into a single objective: wraps this batch plus
// the expected wraps of a future batch with as many departures.
func (s simResult) score() float64 { return float64(s.wraps) + s.cost }

// simulate dry-runs a plan on the tree itself — the placement phases are
// applyPlan's own code, so there is no second implementation to keep exact
// — reads off the multicast wrap count the emitters would produce and the
// post-batch ExpectedRekeyCost for a batch of len(b.Leaves) departures,
// and rolls the tree back. FuzzPlanBatch and the determinism suite assert
// predicted == realized on every simulated batch.
func (t *Tree) simulate(b Batch, p Plan) simResult {
	defer t.rollback()
	dirty := make(map[*Node]*dirtyInfo)
	if _, err := t.place(p, dirty, true); err != nil {
		return simResult{invalid: true}
	}

	// A child is multicast iff it holds a member that is not a joiner of
	// this batch. Joiners sit under dirty nodes only, so counting them from
	// their leaves upward never enters a clean subtree.
	joinersUnder := make(map[*Node]int)
	for _, m := range b.Joins {
		for n := t.leaves[m]; n != nil; n = n.parent {
			joinersUnder[n]++
		}
	}
	wraps := 0
	for n, info := range dirty {
		if info.departure || info.isNew {
			for _, c := range n.children {
				if c.leaves > joinersUnder[c] {
					wraps++
				}
			}
		} else if n.leaves > joinersUnder[n] {
			wraps++
		}
	}
	return simResult{wraps: wraps, cost: t.ExpectedRekeyCost(len(b.Leaves))}
}
