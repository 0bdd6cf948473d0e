package keytree

import (
	"groupkey/internal/analytic"
)

// This file computes the exact expected batched-rekey cost of a concrete
// tree shape — the "simple extension to partially full key trees" the
// paper's Appendix A alludes to. Where the closed-form model assumes a
// full balanced tree with d^i keys per level, these methods walk the real
// tree and sum per-node update probabilities, so they remain exact for
// any shape the server's insertion policy produced.

// ExpectedRekeyCost returns the expected number of multicast encrypted
// keys for a batch of l uniformly random departures (with l joiners
// re-filling the vacated leaves — the J = L replacement regime). Every
// interior node v with s_v member leaves beneath it is updated with
// probability 1 − C(N−s_v, l)/C(N, l) and then wrapped under each child
// that still has a non-joiner receiver — a child whose entire subtree was
// replaced gets its keys through the joiners' bootstrap path instead, so
// that wrap is never multicast:
//
//	E[wraps] = Σ_v Σ_{c ∈ children(v)} ( P[v updated] − P[all of c departed] ).
//
// Both probabilities depend on a node only through its subtree size, and a
// tree has few distinct sizes (a few dozen at 10k leaves), so each is
// computed once per size and the walk itself is a map read per interior.
// The planner compares these sums across candidate placements: terms are
// added in a fixed order — each interior in pre-order, each child's term
// just before descending into it — so equal shapes give equal floats.
func (t *Tree) ExpectedRekeyCost(l int) float64 {
	n := float64(t.Size())
	if n <= 1 || l <= 0 {
		return 0
	}
	lf := float64(l)
	if lf > n {
		lf = n
	}
	type probs struct{ updated, allGone float64 }
	bySize := make(map[int]probs)
	of := func(v *Node) probs {
		p, ok := bySize[v.leaves]
		if !ok {
			s := float64(v.leaves)
			p = probs{1 - analytic.ChooseRatio(n, s, lf), analytic.AllChosenProb(n, s, lf)}
			bySize[v.leaves] = p
		}
		return p
	}
	leafGone := analytic.AllChosenProb(n, 1, lf)
	total := 0.0
	var visit func(v *Node, pv probs)
	visit = func(v *Node, pv probs) {
		// Every child holds a leaf, so as many leaves as children means the
		// children are the leaves: most interiors, and their terms are added
		// without loading one child node.
		allLeaves := v.leaves == len(v.children)
		for _, c := range v.children {
			if allLeaves || c.IsLeaf() {
				if contribution := pv.updated - leafGone; contribution > 0 {
					total += contribution
				}
				continue
			}
			pc := of(c)
			if contribution := pv.updated - pc.allGone; contribution > 0 {
				total += contribution
			}
			visit(c, pc)
		}
	}
	visit(t.root, of(t.root))
	return total
}

// ExpectedRekeyCost is the OFT analogue: an updated non-root node costs one
// blinded-key transmission (to its sibling's subtree), and each of the l
// replaced leaves costs one blind of its fresh secret. The root's blind is
// never transmitted. This makes concrete the paper's Section 2.1.1 remark
// that the optimizations carry over to one-way function trees — at roughly
// half the LKH payload for binary trees.
func (t *OFT) ExpectedRekeyCost(l int) float64 {
	n := float64(t.Size())
	if n <= 1 || l <= 0 {
		return 0
	}
	lf := float64(l)
	if lf > n {
		lf = n
	}
	total := float64(l) // one leaf blind per replaced leaf
	var visit func(v *oftNode)
	visit = func(v *oftNode) {
		if v == nil || v.isLeaf() {
			return
		}
		if v.parent != nil { // the root's blind is never sent
			p := 1 - analytic.ChooseRatio(n, float64(v.leaves), lf)
			total += p
		}
		visit(v.left)
		visit(v.right)
	}
	visit(t.root)
	return total
}
