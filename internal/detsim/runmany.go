package detsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch runs independent configs of one engine. Each run's randomness is
// a pure function of its config's seed, so a batch's results are
// bit-identical to running each config serially, in config order,
// regardless of worker count or scheduling. The engines wrap one Batch
// each behind their RunMany/RunManyWorkers/Sweep functions.
type Batch[C, M any] struct {
	Name    string             // error prefix: the engine's package name
	Run     func(C) (M, error) // one run
	Summary func(C) string     // the config fields that identify a run in errors
	Seed    func(*C) *int64    // the config's seed field, for Sweep
	// Intra, if non-nil, is a run's own worker count: automatic sizing
	// divides GOMAXPROCS by the batch's largest Intra so the nested
	// product runs x shards stays within GOMAXPROCS.
	Intra func(C) int
}

// RunMany executes every config on up to workers goroutines and returns
// the metrics in config order. workers <= 0 means automatic sizing; an
// explicit value is taken as-is (the caller owns the oversubscription
// trade-off then). On error the first failing config by index is
// reported, naming both the index and the config: in a generated batch a
// failure from config k would otherwise be indistinguishable from
// config j's.
func (b Batch[C, M]) RunMany(cfgs []C, workers int) ([]M, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / b.maxIntra(cfgs)
		if workers < 1 {
			workers = 1
		}
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]M, len(cfgs))
	errs := make([]error, len(cfgs))
	if workers <= 1 {
		for i := range cfgs {
			results[i], errs[i] = b.Run(cfgs[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cfgs) {
						return
					}
					results[i], errs[i] = b.Run(cfgs[i])
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: run %d (%s): %w", b.Name, i, b.Summary(cfgs[i]), err)
		}
	}
	return results, nil
}

// maxIntra is the largest per-run worker count across the batch, the
// divisor of the nested-parallelism budget.
func (b Batch[C, M]) maxIntra(cfgs []C) int {
	max := 1
	if b.Intra == nil {
		return max
	}
	for i := range cfgs {
		if p := b.Intra(cfgs[i]); p > max {
			max = p
		}
	}
	return max
}

// Sweep builds and runs `points` configs derived from base: point i
// copies base, decorrelates the seed to base's seed + i (the counter
// hash mixes the seed into every draw, so even adjacent seeds give
// independent streams), then applies vary(i, &cfg) if vary is non-nil —
// vary may override any field, including the seed. The runs fan out
// across RunMany(workers) and the results come back in point order: the
// replica-sweep shape of the EXPERIMENTS.md workloads.
func (b Batch[C, M]) Sweep(base C, points, workers int, vary func(i int, cfg *C)) ([]M, error) {
	if points < 0 {
		return nil, fmt.Errorf("%s: sweep points %d < 0", b.Name, points)
	}
	cfgs := make([]C, points)
	for i := range cfgs {
		cfg := base
		*b.Seed(&cfg) += int64(i)
		if vary != nil {
			vary(i, &cfg)
		}
		cfgs[i] = cfg
	}
	return b.RunMany(cfgs, workers)
}

// Rows partitions 0..n-1 into at most `workers` contiguous shards and runs
// fn(lo, hi) for each shard [lo, hi) on its own goroutine, returning when
// all shards complete. workers <= 0 means GOMAXPROCS. fn must confine its
// writes to rows lo..hi-1 (or otherwise synchronize); reads of shared
// immutable inputs need no synchronization.
//
// Determinism comes from the shape: every row belongs to exactly one
// shard, shard boundaries depend only on (n, workers), and workers write
// only their own rows, so a per-row result merged in row order is
// bit-identical for every worker count. The all-pairs analyses use it.
func Rows(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	shards := make([][2]int, workers)
	for w := 0; w < workers; w++ {
		shards[w] = [2]int{w * n / workers, (w + 1) * n / workers}
	}
	if Invariants {
		verifyShards(n, shards)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(shards[w][0], shards[w][1])
	}
	wg.Wait()
}

// verifyShards asserts the decomposition invariant Rows' determinism
// rests on: the shards tile 0..n-1 exactly — contiguous, non-overlapping,
// no gaps.
func verifyShards(n int, shards [][2]int) {
	at := 0
	for k, sh := range shards {
		if sh[0] != at || sh[1] < sh[0] {
			panic(fmt.Sprintf("detsim: shard %d is [%d,%d), want to start at %d", k, sh[0], sh[1], at))
		}
		at = sh[1]
	}
	if at != n {
		panic(fmt.Sprintf("detsim: shards cover 0..%d, want 0..%d", at, n))
	}
}
