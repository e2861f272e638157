package detsim

import (
	"sync/atomic"
	"testing"
)

// TestRowsCoversEveryRowOnce: every row is visited exactly once for a wide
// range of (n, workers) shapes, including workers > n and workers <= 0.
func TestRowsCoversEveryRowOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 7, 16, 1001} {
			visits := make([]int32, n)
			Rows(n, workers, func(lo, hi int) {
				for r := lo; r < hi; r++ {
					atomic.AddInt32(&visits[r], 1)
				}
			})
			for r, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: row %d visited %d times", n, workers, r, v)
				}
			}
		}
	}
}

// TestRowsDeterministicMerge: a per-row computation merged in row order is
// bit-identical for every worker count.
func TestRowsDeterministicMerge(t *testing.T) {
	const n = 257
	compute := func(workers int) float64 {
		rows := make([]float64, n)
		Rows(n, workers, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				rows[r] = 1.0 / float64(r+1)
			}
		})
		sum := 0.0
		for _, v := range rows {
			sum += v
		}
		return sum
	}
	want := compute(1)
	for _, workers := range []int{2, 3, 5, 8, 64} {
		if got := compute(workers); got != want {
			t.Fatalf("workers=%d: sum %v, want %v (bit-identical)", workers, got, want)
		}
	}
}

// TestRowsShardsAreContiguous: shard boundaries passed to fn tile the row
// space in order with no gaps (the invariant verifyShards checks under
// simcheck; asserted here unconditionally via the observed calls).
func TestRowsShardsAreContiguous(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		var spans [][2]int
		Rows(100, workers, func(lo, hi int) {
			<-mu
			spans = append(spans, [2]int{lo, hi})
			mu <- struct{}{}
		})
		covered := make([]bool, 100)
		for _, sp := range spans {
			for r := sp[0]; r < sp[1]; r++ {
				if covered[r] {
					t.Fatalf("workers=%d: row %d in two shards", workers, r)
				}
				covered[r] = true
			}
		}
		for r, ok := range covered {
			if !ok {
				t.Fatalf("workers=%d: row %d uncovered", workers, r)
			}
		}
	}
}

// TestVerifyShardsRejectsBadTilings: the simcheck tiling check panics on
// a gap, an overlap and short coverage.
func TestVerifyShardsRejectsBadTilings(t *testing.T) {
	for _, shards := range [][][2]int{
		{{0, 3}, {4, 10}},
		{{0, 5}, {4, 10}},
		{{0, 5}, {5, 9}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("verifyShards(10, %v) did not panic", shards)
				}
			}()
			verifyShards(10, shards)
		}()
	}
	verifyShards(10, [][2]int{{0, 5}, {5, 10}})
}
