package routesvc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// waitMetrics polls the service until cond holds or the deadline passes —
// auto-sweeps run on their own goroutines.
func waitMetrics(t *testing.T, s *Service, what string, cond func(Metrics) bool) Metrics {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.Metrics()
		if cond(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; metrics: %+v", what, m)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSSDTServedByConstruction pins Theorem 3.1's serving contract on a
// fresh service: the very first SSDT route and batch answer the
// destination's own tag as cached, computing nothing, storing nothing,
// and never touching the admission gate — here held full by a parked
// TSDT flight.
func TestSSDTServedByConstruction(t *testing.T) {
	s := mustService(t, Config{N: 64, Admission: AdmissionConfig{MaxQueue: 1, MinQueue: 1, Round: -1}})
	p := s.Params()
	entered := make(chan struct{})
	unblock := make(chan struct{})
	s.testComputeHook = func() {
		close(entered)
		<-unblock
	}
	parked := make(chan error, 1)
	go func() {
		_, err := s.Route(0, 1, SchemeTSDT)
		parked <- err
	}()
	<-entered
	if _, err := s.Route(2, 3, SchemeTSDT); !errors.Is(err, ErrOverload) {
		t.Fatalf("fresh TSDT with the gate full: err = %v, want ErrOverload", err)
	}

	res, err := s.Route(3, 41, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached || res.Coalesced || res.Tag != core.MustTag(p, 41) || res.Epoch != 0 {
		t.Fatalf("first SSDT route = %+v, want MustTag(p, 41), cached, epoch 0", res)
	}
	reqs := []Request{{Src: 0, Dst: 9, Scheme: SchemeSSDT}, {Src: 63, Dst: 0, Scheme: SchemeSSDT}, {Src: 5, Dst: 9, Scheme: SchemeSSDT}}
	results, err := s.RouteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || !r.Cached || r.Tag != core.MustTag(p, reqs[i].Dst) {
			t.Fatalf("SSDT batch item %d = %+v, want MustTag(p, %d), cached", i, r, reqs[i].Dst)
		}
	}
	m := s.Metrics()
	if m.SSDT != (CacheStats{Hits: 4}) || m.CacheEntries != 0 {
		t.Fatalf("after SSDT traffic: ssdt %+v, cache entries %d; want 4 hits, 0 misses, 0 entries", m.SSDT, m.CacheEntries)
	}
	if m.Admission.Admitted != 1 || m.Admission.Shed != 1 {
		t.Fatalf("admission %+v: SSDT traffic reached the gate", m.Admission)
	}

	close(unblock)
	if err := <-parked; err != nil {
		t.Fatalf("parked TSDT flight: %v", err)
	}
	if got := s.Metrics().CacheEntries; got != 1 {
		t.Fatalf("cache entries = %d, want only the TSDT tag", got)
	}
}

// TestAutoSweep: stale TSDT entries are reclaimed without an operator
// call once SweepEvery epoch bumps accumulate.
func TestAutoSweep(t *testing.T) {
	s := mustService(t, Config{N: 8, Shards: 2, SweepEvery: 2})
	for d := 0; d < 8; d++ {
		if _, err := s.Route(0, d, SchemeTSDT); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.CacheEntriesLive != 8 || m.CacheEntriesStale != 0 {
		t.Fatalf("before churn: live=%d stale=%d", m.CacheEntriesLive, m.CacheEntriesStale)
	}
	// Two map changes: epoch reaches 2, the cadence fires, and the sweep
	// (asynchronously) reclaims all 8 now-stale TSDT entries.
	fault(t, s, topology.Link{Stage: 0, From: 1, Kind: topology.Minus})
	fault(t, s, topology.Link{Stage: 1, From: 2, Kind: topology.Plus})
	m = waitMetrics(t, s, "auto sweep", func(m Metrics) bool { return m.SweptTotal >= 8 })
	if m.Sweeps == 0 {
		t.Fatalf("sweeps = 0 with swept_total = %d", m.SweptTotal)
	}
	if m.CacheEntries != 0 || m.CacheEntriesStale != 0 {
		t.Fatalf("after auto sweep: entries=%d stale=%d", m.CacheEntries, m.CacheEntriesStale)
	}
}

// TestConcurrentPrewarmChurn races routing traffic, epoch churn, operator
// and auto sweeps, and the whole-row SSDT batches that used to follow a
// prewarm: with SSDT served by construction, every such batch must still
// answer MustTag(p, dst) cached while the map and the TSDT cache churn
// underneath it. Run under -race.
func TestConcurrentPrewarmChurn(t *testing.T) {
	s := mustService(t, Config{N: 32, Shards: 4, SweepEvery: 2})
	p := s.Params()
	const G, R = 6, 200
	row := make([]Request, 32)
	for d := range row {
		row[d] = Request{Src: 7, Dst: d, Scheme: SchemeSSDT}
	}
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			l := topology.Link{Stage: g % 5, From: g, Kind: topology.Minus}
			for r := 0; r < R; r++ {
				scheme := Scheme(r % 2)
				if _, err := s.Route(rng.Intn(32), rng.Intn(32), scheme); err != nil && !errors.Is(err, core.ErrNoPath) {
					t.Errorf("route: %v", err)
					return
				}
				switch r % 40 {
				case 5:
					s.ApplyFaults([]topology.Link{l}, nil)
				case 15:
					s.ApplyRepairs([]topology.Link{l})
				case 25:
					if g == 0 {
						results, err := s.RouteBatch(row)
						if err != nil {
							t.Errorf("SSDT batch: %v", err)
							return
						}
						for d, res := range results {
							if res.Err != nil || !res.Cached || res.Tag != core.MustTag(p, d) {
								t.Errorf("SSDT batch item %d under churn = %+v, want MustTag(p, %d), cached", d, res, d)
								return
							}
						}
					}
				case 35:
					if g == 1 {
						s.Sweep()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	m := s.Metrics()
	total := m.SSDT.Hits + m.SSDT.Misses + m.TSDT.Hits + m.TSDT.Misses
	if want := uint64(G*R + 5*len(row)); total != want {
		t.Errorf("hits+misses = %d, want %d", total, want)
	}
	if m.SSDT.Misses != 0 {
		t.Errorf("SSDT misses = %d under churn, want 0", m.SSDT.Misses)
	}
	if m.CacheEntries != m.CacheEntriesLive+m.CacheEntriesStale {
		t.Errorf("entries %d != live %d + stale %d", m.CacheEntries, m.CacheEntriesLive, m.CacheEntriesStale)
	}
	s.Drain() // waits out any scheduled sweep goroutines
}
