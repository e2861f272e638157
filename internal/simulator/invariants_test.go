package simulator

import (
	"math/rand"
	"strings"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// enableInvariants turns the per-cycle checker on for one test,
// restoring the build-tag default afterwards.
func enableInvariants(t *testing.T) {
	t.Helper()
	prev := invariantsEnabled
	invariantsEnabled = true
	t.Cleanup(func() { invariantsEnabled = prev })
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not contain %q", r, want)
		}
	}()
	fn()
}

// TestInvariantCheckerAcceptsRealRuns runs the checker over every
// simulator axis: on correct code it must stay silent through warmup,
// blockage drops, transient faults, bursty sources and both switch
// models.
func TestInvariantCheckerAcceptsRealRuns(t *testing.T) {
	enableInvariants(t)
	p := topology.MustParams(8)
	blk := blockage.NewSet(p)
	blk.RandomLinks(rand.New(rand.NewSource(7)), 5)
	cfgs := []Config{
		{N: 8, Policy: StaticC, Load: 0.4, QueueCap: 4, Cycles: 400, Warmup: 50, Seed: 1},
		{N: 16, Policy: RandomState, Load: 0.8, QueueCap: 2, Cycles: 300, Seed: 2, Switches: SingleInput},
		{N: 8, Policy: AdaptiveSSDT, Load: 0.6, QueueCap: 3, Cycles: 300, Warmup: 30, Seed: 3, Blocked: blk},
		{N: 8, Policy: AdaptiveSSDT, Load: 0.5, QueueCap: 4, Cycles: 300, Seed: 4, FaultRate: 0.02, RepairCycles: 15},
		{N: 8, Policy: RandomState, Load: 0.7, QueueCap: 1, Cycles: 300, Seed: 5, Bursty: true, Traffic: Hotspot, HotspotFrac: 0.4},
		{N: 4, Policy: AdaptiveSSDT, Load: 1.0, QueueCap: 2, Cycles: 200, Seed: 6, Traffic: Tornado, Switches: SingleInput},
	}
	for i, cfg := range cfgs {
		if _, err := Run(cfg); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
	}
}

// newCheckedSim builds a small sim with the checker armed, ready for
// state corruption.
func newCheckedSim(t *testing.T) *sim {
	t.Helper()
	enableInvariants(t)
	s, err := newSim(Config{N: 8, Policy: StaticC, Load: 0.5, QueueCap: 4, Cycles: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.reset(1)
	return s
}

// TestInvariantConservationPanics: a packet smuggled into a queue without
// being counted as injected breaks injected == delivered+dropped+occupied.
func TestInvariantConservationPanics(t *testing.T) {
	s := newCheckedSim(t)
	s.q.push(0, packet{dst: 1, born: 0})
	s.occupied++ // occupancy bookkeeping is consistent; the balance is not
	mustPanic(t, "conservation broken", func() { s.checkInvariants(0) })
}

// TestInvariantBitsetRingAgreementPanics: an occupancy bit with no queued
// packet behind it.
func TestInvariantBitsetRingAgreementPanics(t *testing.T) {
	s := newCheckedSim(t)
	s.q.occ[0] |= 1 // queue 0 is empty but its bit says otherwise
	mustPanic(t, "disagrees with occupancy bit", func() { s.checkInvariants(0) })
}

// TestInvariantOccupancyTotalPanics: the incrementally maintained total
// drifting from the sum of ring lengths.
func TestInvariantOccupancyTotalPanics(t *testing.T) {
	s := newCheckedSim(t)
	s.occupied = 3
	mustPanic(t, "incremental occupancy", func() { s.checkInvariants(0) })
}

// TestInvariantRingBoundsPanics: a corrupted ring size outside
// [0, QueueCap].
func TestInvariantRingBoundsPanics(t *testing.T) {
	s := newCheckedSim(t)
	s.q.size[2] = s.q.cap + 1
	mustPanic(t, "outside [0,", func() { s.checkInvariants(0) })
}

// TestInvariantLatencyMassPanics: histogram counts that do not sum to the
// number of delivered packets.
func TestInvariantLatencyMassPanics(t *testing.T) {
	enableInvariants(t)
	s, err := newSim(Config{N: 8, Policy: StaticC, Load: 0, QueueCap: 4, Cycles: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.reset(1)
	s.latHist[3] = 7 // phantom deliveries; the zero-load run delivers none
	mustPanic(t, "latency histogram mass", func() { s.run() })
}
