// Order statistics. A timing is reported as a median and a high
// percentile, and a percentile is reported only when at least minBeyond
// samples lie beyond it; otherwise a single outlier would be the tail.

package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// nearestRank returns the 1-based rank ceil(q·n) of the q-quantile of n
// samples. It fails unless at least minBeyond samples rank above it.
func nearestRank(n int, q float64) (int, error) {
	rank := max(int(math.Ceil(q*float64(n))), 1)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, max(n-rank, 0), minBeyond)
	}
	return rank, nil
}

// quantile returns the nearest-rank q-quantile of ascending samples.
func quantile(sorted []int64, q float64) (int64, error) {
	rank, err := nearestRank(len(sorted), q)
	if err != nil {
		return 0, err
	}
	return sorted[rank-1], nil
}

// quantiles sorts samples in place and returns one quantile per q.
func quantiles(samples []int64, qs ...float64) ([]int64, error) {
	slices.Sort(samples)
	out := make([]int64, len(qs))
	for i, q := range qs {
		v, err := quantile(samples, q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// median returns the median of a few repeated measurements (the mean
// of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
