package simulator

import (
	"fmt"

	"iadm/internal/detsim"
)

// batch is the packet engine's instance of the shared batch runner.
var batch = detsim.Batch[Config, Metrics]{
	Name:    "simulator",
	Run:     Run,
	Summary: configSummary,
	Seed:    func(cfg *Config) *int64 { return &cfg.Seed },
}

// RunMany executes every config as an independent run, fanning out across
// a worker pool of GOMAXPROCS goroutines. Each run's randomness is a pure
// function of cfg.Seed, so results are bit-identical to calling Run on
// each config serially, in the same order as cfgs, regardless of worker
// count or scheduling. On error the first failing config (by index) is
// reported.
func RunMany(cfgs []Config) ([]Metrics, error) {
	return batch.RunMany(cfgs, 0)
}

// RunManyWorkers is RunMany with an explicit worker bound; workers <= 0
// means GOMAXPROCS. This is where the packet engine's parallelism lives:
// a run itself is always stepped sequentially.
func RunManyWorkers(cfgs []Config, workers int) ([]Metrics, error) {
	return batch.RunMany(cfgs, workers)
}

// Sweep builds and runs `points` configs derived from base: point i copies
// base, sets the seed to base.Seed + i, then applies vary(i, &cfg) if vary
// is non-nil (vary may override any field, including the seed). The runs
// fan out across RunManyWorkers(workers) and the results come back in
// point order: many independent seeds (or operating points) of one
// scenario.
func Sweep(base Config, points, workers int, vary func(i int, cfg *Config)) ([]Metrics, error) {
	return batch.Sweep(base, points, workers, vary)
}

// configSummary renders the handful of Config fields that identify a run
// in error messages, without dumping unbounded fields like Perm.
func configSummary(cfg Config) string {
	s := fmt.Sprintf("N=%d policy=%v load=%v qcap=%d cycles=%d warmup=%d seed=%d traffic=%v",
		cfg.N, cfg.Policy, cfg.Load, cfg.QueueCap, cfg.Cycles, cfg.Warmup, cfg.Seed, cfg.Traffic)
	if cfg.FaultRate > 0 {
		s += fmt.Sprintf(" faultRate=%v repair=%d", cfg.FaultRate, cfg.RepairCycles)
	}
	return s
}
