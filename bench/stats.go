package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func flatten(xss [][]float64) []float64 {
	n := 0
	for _, xs := range xss {
		n += len(xs)
	}
	out := make([]float64, 0, n)
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

// segments is how many equal parts of the measured phase vote on a median.
const segments = 3

// segmented is the run's q-quantile for one sample series: the median of
// the q-quantiles of three equal thirds of the measured epochs, so one slow
// third of a run (a noisy neighbour) is outvoted. spread is (max-min)/median
// over the three segment quantiles. perEpoch[i] holds epoch i's samples
// (one for a per-epoch series, many for a per-member one).
func segmented(perEpoch [][]float64, q float64) (v, spread float64, n int, qs []float64) {
	for s := 0; s < segments; s++ {
		lo, hi := s*len(perEpoch)/segments, (s+1)*len(perEpoch)/segments
		seg := flatten(perEpoch[lo:hi])
		n += len(seg)
		if len(seg) > 0 {
			qs = append(qs, quantile(seg, q))
		}
	}
	if len(qs) == 0 {
		return 0, 0, 0, nil
	}
	v = median(qs)
	if v > 0 {
		lo, hi := qs[0], qs[0]
		for _, x := range qs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		spread = (hi - lo) / v
	}
	return v, spread, n, qs
}

// scalars wraps a per-epoch scalar series for segmented.
func scalars(xs []float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i := range xs {
		out[i] = xs[i : i+1]
	}
	return out
}
