package analysis

import (
	"fmt"

	"iadm/internal/blockage"
	"iadm/internal/detsim"
	"iadm/internal/paths"
	"iadm/internal/topology"
)

// This file holds the all-pairs sweeps. They fan the N sources out over
// a worker pool (detsim.Rows) with one result slot per source and a
// sequential source-order reduction, so every function here returns
// bit-identical values for any worker count — the worker-invariance tests
// assert exact equality, not tolerance.

// ReroutablePairs counts the (s, d) pairs that remain routable under the
// given blockage set, sweeping all N^2 pairs with paths.Exists across
// workers (0 means GOMAXPROCS) worker goroutines.
func ReroutablePairs(p topology.Params, blk *blockage.Set, workers int) int {
	N := p.Size()
	rows := make([]int, N)
	detsim.Rows(N, workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			c := 0
			for d := 0; d < N; d++ {
				if paths.Exists(p, s, d, blk) {
					c++
				}
			}
			rows[s] = c
		}
	})
	total := 0
	for _, c := range rows {
		total += c
	}
	return total
}

// ExpectedConnectivityExactWorkers is ExpectedConnectivityExact fanned out
// over workers goroutines: each worker evaluates the pivot DP for a
// contiguous block of sources, accumulating one float64 per source row,
// and the rows are summed in source order afterwards.
func ExpectedConnectivityExactWorkers(p topology.Params, q float64, workers int) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("analysis: failure probability %v out of [0,1]", q)
	}
	N := p.Size()
	rows := make([]float64, N)
	errs := make([]error, N)
	detsim.Rows(N, workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sum := 0.0
			for d := 0; d < N; d++ {
				r, err := PairReliability(p, s, d, q)
				if err != nil {
					errs[s] = err
					return
				}
				sum += r
			}
			rows[s] = sum
		}
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	sum := 0.0
	for _, r := range rows {
		sum += r
	}
	return sum / float64(N*N), nil
}
