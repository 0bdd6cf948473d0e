package dst

import "time"

// shrinkBudget bounds how many re-runs the shrinker may spend.
const shrinkBudget = 200

// Shrink minimizes a failing plan while preserving its failure, every kind
// of violation orig raised: ddmin-style chunk removal over the fault ops,
// then single-op removal, then duration trimming. It returns the smallest
// still-failing plan found and how many verification runs it spent.
func Shrink(plan Plan, orig *Result) (Plan, int) {
	runs := 0
	fails := func(p Plan) bool {
		if runs >= shrinkBudget {
			return false
		}
		runs++
		return reproduces(Run(p, false), orig.Violations)
	}

	best := plan

	// ddmin over ops: try dropping complements of ever-finer chunks.
	for chunk := (len(best.Ops) + 1) / 2; chunk >= 1; {
		reduced := false
		for start := 0; start+chunk <= len(best.Ops); start += chunk {
			cand := best
			cand.Ops = append(append([]Op{}, best.Ops[:start]...), best.Ops[start+chunk:]...)
			if fails(cand) {
				best = cand
				reduced = true
				start -= chunk // the window shifted under us
			}
		}
		if !reduced {
			if chunk == 1 {
				break
			}
			chunk = (chunk + 1) / 2
		}
	}

	// Trim the tail: end shortly after the last op (the settle phase is
	// appended by the runner regardless).
	if len(best.Ops) > 0 {
		lastAt := time.Duration(0)
		for _, op := range best.Ops {
			end := op.At + op.Dur
			if end > lastAt {
				lastAt = end
			}
		}
		cand := best
		cand.Duration = lastAt + 2*best.Period
		if cand.Duration < best.Duration && fails(cand) {
			best = cand
		}
	}

	// Shrink the population.
	for _, members := range []int{8, 6, 4} {
		if members >= best.Members {
			continue
		}
		cand := best
		cand.Members = members
		if fails(cand) {
			best = cand
		}
	}
	if best.Groups > 1 {
		cand := best
		cand.Groups = 1
		if fails(cand) {
			best = cand
		}
	}
	return best, runs
}
