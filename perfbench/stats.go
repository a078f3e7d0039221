package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs, interpolating
// linearly between closest ranks. A level above the median is refused
// unless at least minBeyond samples lie beyond it; the median itself is
// always reported.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile level %g outside (0, 1)", p)
	}
	if p > 0.5 {
		if beyond := float64(n) * (1 - p); beyond+1e-9 < minBeyond {
			return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, want at least %d", p*100, n, beyond, minBeyond)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median returns the middle value of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// highTail returns the highest percentile level up to p99 that keeps
// minBeyond samples beyond it among xs, and the value there. Callers
// name the level they report.
func highTail(xs []float64) (level, value float64, err error) {
	level = math.Min(0.99, 1-float64(minBeyond)/float64(len(xs)))
	if level <= 0.5 {
		return 0, 0, fmt.Errorf("%d samples are too few for a tail percentile", len(xs))
	}
	value, err = percentile(xs, level)
	return level, value, err
}
