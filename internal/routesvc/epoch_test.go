package routesvc

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// maps records the blocked set of every epoch a test has seen, so a served
// TSDT tag can be checked against the map of the epoch it is stamped with.
type maps map[uint64][]topology.Link

// record stores the service's current blocked set under its epoch.
func (m maps) record(s *Service) { m[s.Epoch()] = s.Faults() }

// checkServed fails the test unless res's tag, followed from its source,
// ends at its destination and uses no link blocked at res.Epoch.
func (m maps) checkServed(t testing.TB, p topology.Params, res Result) {
	t.Helper()
	blocked, ok := m[res.Epoch]
	if !ok {
		t.Fatalf("%d->%d stamped with unrecorded epoch %d", res.Src, res.Dst, res.Epoch)
	}
	path := res.Tag.Follow(p, res.Src)
	if path.Destination() != res.Dst {
		t.Fatalf("%d->%d tag %v delivers to %d", res.Src, res.Dst, res.Tag, path.Destination())
	}
	for _, pl := range path.Links {
		for _, l := range blocked {
			if pl == l {
				t.Fatalf("%d->%d tag %v uses %v, blocked at its epoch %d", res.Src, res.Dst, res.Tag, l, res.Epoch)
			}
		}
	}
}

// TestTSDTMissStampedWithComputedEpoch is the regression test for the
// repair race: a repair landing between a TSDT request's epoch load and its
// tag computation must not leave the freshly computed tag (through the
// repaired link) stamped with the epoch at which that link was blocked.
func TestTSDTMissStampedWithComputedEpoch(t *testing.T) {
	s := mustService(t, Config{N: 8})
	p := s.Params()
	l := core.MustTag(p, 6).Follow(p, 1).Links[0]
	seen := maps{}
	seen.record(s)
	fault(t, s, l)
	seen.record(s)

	var once sync.Once
	s.testEpochHook = func() {
		once.Do(func() {
			repair(t, s, l)
			seen.record(s)
		})
	}
	res, err := s.Route(1, 6, SchemeTSDT)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("hook did not repair the link (epoch %d)", s.Epoch())
	}
	seen.checkServed(t, p, res)
	if res.Epoch != s.Epoch() {
		t.Errorf("miss reported epoch %d, want the epoch it was computed at, %d", res.Epoch, s.Epoch())
	}
}

// TestTSDTHeapAllPairs bounds the heap one service needs to hold every
// TSDT tag of an N=512 network: the flat cache is the only table, so an
// all-pairs sweep may grow the heap by at most 32 bytes per pair.
func TestTSDTHeapAllPairs(t *testing.T) {
	const N = 512
	s := mustService(t, Config{N: N})
	defer s.Drain()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for src := 0; src < N; src++ {
		for dst := 0; dst < N; dst++ {
			if _, err := s.Route(src, dst, SchemeTSDT); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perPair := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (N * N)
	t.Logf("heap growth %.1f B/pair", perPair)
	if perPair > 32 {
		t.Errorf("all-pairs TSDT sweep grew the heap by %.1f B/pair, want <= 32", perPair)
	}
}

// TestAliasSweepForcedWithCadenceDisabled pins the epoch-stamp alias
// guard: with the sweep cadence disabled, the 2^16th map change still
// schedules a sweep, and Drain waits for it.
func TestAliasSweepForcedWithCadenceDisabled(t *testing.T) {
	s := mustService(t, Config{N: 8, SweepEvery: -1})
	l := topology.Link{Stage: 1, From: 2, Kind: topology.Plus}
	for i := 1; i < aliasSweepInterval; i++ {
		if i%2 == 1 {
			fault(t, s, l)
		} else {
			repair(t, s, l)
		}
	}
	if m := s.Metrics(); m.Epoch != aliasSweepInterval-1 || m.Sweeps != 0 {
		t.Fatalf("before the alias bump: epoch %d, sweeps %d; want %d, 0", m.Epoch, m.Sweeps, aliasSweepInterval-1)
	}
	repair(t, s, l)
	s.Drain()
	if m := s.Metrics(); m.Sweeps < 1 {
		t.Errorf("sweeps_total = %d after %d map changes, want >= 1", m.Sweeps, m.Epoch)
	}
}

// FuzzServedTagOracle runs a fuzzed schedule of faults, repairs, TSDT
// routes (some with a fault or repair raced into the window after the
// epoch load) and sweeps on an N=16 service, and checks every served tag
// against the blocked set of the epoch it is stamped with.
func FuzzServedTagOracle(f *testing.F) {
	// The repair race: block 0's stage-3 straight link, then route 0->0
	// while a repair of it lands after the epoch load.
	f.Add([]byte{0, 0x00, 0x07, 4, 0x00, 0x07})
	f.Add([]byte{0, 0x01, 0x05, 2, 0x61, 0, 2, 0x61, 0, 3, 0x12, 0x44, 5, 0, 0, 2, 0x12, 0})
	f.Add([]byte{0, 0x03, 0x01, 0, 0x07, 0x06, 4, 0x37, 0x16, 1, 0x03, 0x01, 2, 0xf0, 0, 5, 0, 0, 2, 0xf0, 0})
	f.Fuzz(serveOracle)
}

// maxOracleOps bounds one fuzzed schedule. The races it looks for take a
// handful of ops, and the fuzzer's input minimization runs a schedule a
// number of times quadratic in its length, so longer ones only slow it.
const maxOracleOps = 64

// serveOracle is FuzzServedTagOracle's body: it decodes data three bytes
// per op, up to maxOracleOps ops, and checks every served TSDT tag against
// its stamped epoch's map.
func serveOracle(t *testing.T, data []byte) {
	if len(data) > 3*maxOracleOps {
		data = data[:3*maxOracleOps]
	}
	s := mustService(t, Config{N: 16, Shards: 2})
	defer s.Drain()
	p := s.Params()
	seen := maps{}
	seen.record(s)
	// linkOf maps two bytes onto any link of the network.
	linkOf := func(a, b byte) topology.Link {
		return topology.Link{Stage: int(b) % p.Stages(), From: int(a) % p.Size(), Kind: topology.LinkKind(int(b/4) % 3)}
	}
	for ; len(data) >= 3; data = data[3:] {
		op, a, b := data[0]%6, data[1], data[2]
		switch op {
		case 0:
			if _, err := s.ApplyFaults([]topology.Link{linkOf(a, b)}, nil); err != nil {
				t.Fatal(err)
			}
			seen.record(s)
		case 1:
			if _, err := s.ApplyRepairs([]topology.Link{linkOf(a, b)}); err != nil {
				t.Fatal(err)
			}
			seen.record(s)
		case 2, 3, 4:
			// The hook fires once, for this request only.
			hooked := op == 2
			s.testEpochHook = func() {
				if hooked {
					return
				}
				hooked = true
				l := linkOf(b/16, b)
				if op == 3 {
					s.ApplyFaults([]topology.Link{l}, nil)
				} else {
					s.ApplyRepairs([]topology.Link{l})
				}
				seen.record(s)
			}
			res, err := s.Route(int(a%16), int(a/16), SchemeTSDT)
			s.testEpochHook = nil
			if err != nil {
				if !errors.Is(err, core.ErrNoPath) {
					t.Fatal(err)
				}
				continue
			}
			if res.Epoch > s.Epoch() {
				t.Fatalf("tag stamped with epoch %d, past the current %d", res.Epoch, s.Epoch())
			}
			seen.checkServed(t, p, res)
		case 5:
			s.Sweep()
		}
	}

}
