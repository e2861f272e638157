package wormhole

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Persistent intra-run worker pool: helpers park on a channel between
// runs, phases synchronize through an atomic counter with a short spin
// before yielding, and the coordinator (the goroutine inside run)
// contributes shard 0 itself — so a steady-state Runner run performs
// zero heap allocations.

// Phase job kinds dispatched to the pool.
const (
	jobDeliver = iota // eject the last stage's lanes at the output column
	jobStage          // advance one intermediate stage (pool.stage)
	jobInject         // per-source flit injection
	jobEndRun         // park the helpers until the next run
)

// workerPool runs shard phases on persistent helper goroutines.
type workerPool struct {
	s       *sim
	helpers int
	start   chan struct{}

	phase atomic.Uint32
	done  atomic.Uint32

	// Job description; written by the coordinator before the phase bump,
	// read by helpers after observing it (the atomic ordering makes the
	// plain fields safe).
	kind     int
	stage    int
	cycle    int
	measured bool

	closeOnce sync.Once
}

func newWorkerPool(s *sim, shards int) *workerPool {
	p := &workerPool{s: s, helpers: shards - 1, start: make(chan struct{})}
	for k := 1; k < shards; k++ {
		go p.helper(k)
	}
	return p
}

// spinWait spins on cond with periodic yields; with more shards than
// cores a pure spin could starve the very workers it waits for.
func spinWait(cond func() bool) {
	for spins := 0; !cond(); {
		spins++
		if spins >= 64 {
			spins = 0
			runtime.Gosched()
		}
	}
}

func (p *workerPool) helper(k int) {
	for range p.start { // one token per run; exits when Close closes the channel
		last := uint32(0) // coordinator resets phase to 0 before unparking
		for {
			spinWait(func() bool { return p.phase.Load() != last })
			last = p.phase.Load()
			if p.kind == jobEndRun {
				p.done.Add(1)
				break
			}
			p.s.runShardPhase(k, p.kind, p.stage, p.cycle, p.measured)
			p.done.Add(1)
		}
	}
}

// unpark readies the helpers for a run. Helpers are parked (or not yet
// mid-run), so resetting the phase counter here cannot race them.
func (p *workerPool) unpark() {
	p.phase.Store(0)
	for i := 0; i < p.helpers; i++ {
		p.start <- struct{}{}
	}
}

// dispatch publishes one phase, contributes shard 0 on the coordinator
// goroutine, and waits for all helpers — the inter-phase barrier.
func (p *workerPool) dispatch(kind, stage, cycle int, measured bool) {
	p.done.Store(0)
	p.kind, p.stage, p.cycle, p.measured = kind, stage, cycle, measured
	p.phase.Add(1)
	if kind != jobEndRun {
		p.s.runShardPhase(0, kind, stage, cycle, measured)
	}
	target := uint32(p.helpers)
	spinWait(func() bool { return p.done.Load() == target })
}

// Close ends the helper goroutines. Must not be called mid-run.
func (p *workerPool) Close() {
	p.closeOnce.Do(func() { close(p.start) })
}

// closePool releases the intra-run workers, if any.
func (s *sim) closePool() {
	if s.pool != nil {
		s.pool.Close()
	}
}
