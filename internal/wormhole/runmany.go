package wormhole

import (
	"fmt"

	"iadm/internal/detsim"
)

// batch is the wormhole engine's instance of the shared batch runner. A
// run may shard itself (IntraWorkers), so automatic sizing divides
// GOMAXPROCS by the batch's largest shard count.
var batch = detsim.Batch[Config, Metrics]{
	Name:    "wormhole",
	Run:     Run,
	Summary: configSummary,
	Seed:    func(cfg *Config) *int64 { return &cfg.Seed },
	Intra: func(cfg Config) int {
		if cfg.N < 1 {
			return 1 // invalid; Run will report it
		}
		return effectiveIntra(cfg)
	},
}

// RunMany executes every config as an independent run, fanning out across
// a worker pool. Each run's randomness is a pure function of cfg.Seed, so
// results are bit-identical to calling Run on each config serially, in
// the same order as cfgs, regardless of worker count or scheduling.
func RunMany(cfgs []Config) ([]Metrics, error) {
	return batch.RunMany(cfgs, 0)
}

// RunManyWorkers is RunMany with an explicit worker bound; workers <= 0
// means automatic sizing: GOMAXPROCS goroutines divided by the largest
// per-run IntraWorkers in the batch, so the nested product runs x shards
// stays within GOMAXPROCS.
func RunManyWorkers(cfgs []Config, workers int) ([]Metrics, error) {
	return batch.RunMany(cfgs, workers)
}

// Sweep builds and runs `points` configs derived from base: point i
// copies base, decorrelates the seed to base.Seed + i, then applies
// vary(i, &cfg) if non-nil. Results come back in point order.
func Sweep(base Config, points, workers int, vary func(i int, cfg *Config)) ([]Metrics, error) {
	return batch.Sweep(base, points, workers, vary)
}

// configSummary renders the handful of Config fields that identify a run
// in error messages, without dumping unbounded fields like Perm.
func configSummary(cfg Config) string {
	s := fmt.Sprintf("N=%d policy=%v load=%v flits=%d lanes=%d depth=%d cycles=%d warmup=%d seed=%d traffic=%v",
		cfg.N, cfg.Policy, cfg.Load, cfg.PacketFlits, cfg.Lanes, cfg.LaneDepth,
		cfg.Cycles, cfg.Warmup, cfg.Seed, cfg.Traffic)
	if cfg.FaultRate > 0 {
		s += fmt.Sprintf(" faultRate=%v repair=%d", cfg.FaultRate, cfg.RepairCycles)
	}
	if cfg.IntraWorkers != 0 {
		s += fmt.Sprintf(" intraWorkers=%d", cfg.IntraWorkers)
	}
	return s
}
