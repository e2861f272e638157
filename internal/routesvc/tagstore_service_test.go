package routesvc

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// waitMetrics polls the service until cond holds or the deadline passes —
// auto-sweeps and storm prewarms run on their own goroutines.
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

// TestPrewarmFirstRequestCached pins the serve-smoke contract: with
// Config.Prewarm the very first SSDT request of the process is a cache
// hit out of the dense table.
func TestPrewarmFirstRequestCached(t *testing.T) {
	s := mustService(t, Config{N: 64, Prewarm: true})
	res, err := s.Route(3, 41, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("first SSDT request after prewarm was not a cache hit")
	}
	if res.Tag != core.MustTag(s.Params(), 41) {
		t.Fatalf("dense tag = %v", res.Tag)
	}
	if got := res.Path.Destination(s.Params()); got != 41 {
		t.Fatalf("dense-path destination = %d", got)
	}
	m := s.Metrics()
	if m.DenseRoutes != 64 || m.Prewarms != 1 || m.PrewarmRoutes != 64 {
		t.Fatalf("dense=%d prewarms=%d routes=%d", m.DenseRoutes, m.Prewarms, m.PrewarmRoutes)
	}
	if m.SSDT.Misses != 0 || m.SSDT.Hits != 1 {
		t.Fatalf("SSDT stats after prewarmed request: %+v", m.SSDT)
	}
	if m.CacheBytes == 0 || m.BitsPerRoute == 0 {
		t.Fatalf("footprint metrics empty: bytes=%d bits/route=%g", m.CacheBytes, m.BitsPerRoute)
	}
	// The dense table is epoch-exempt (Theorem 3.1): still hit after churn.
	if _, err := s.ReportFault(topology.Link{Stage: 0, From: 0, Kind: topology.Minus}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Route(5, 41, SchemeSSDT)
	if err != nil || !res.Cached {
		t.Fatalf("SSDT request after fault: cached=%v err=%v", res.Cached, err)
	}
}

// TestAutoSweep: stale TSDT entries are reclaimed without an operator
// call once SweepEvery epoch bumps accumulate.
func TestAutoSweep(t *testing.T) {
	s := mustService(t, Config{N: 8, Shards: 2, SweepEvery: 2, PrewarmStorm: -1})
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
	if _, err := s.ReportFault(topology.Link{Stage: 0, From: 1, Kind: topology.Minus}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportFault(topology.Link{Stage: 1, From: 2, Kind: topology.Plus}); err != nil {
		t.Fatal(err)
	}
	m = waitMetrics(t, s, "auto sweep", func(m Metrics) bool { return m.SweptTotal >= 8 })
	if m.Sweeps == 0 {
		t.Fatalf("sweeps = 0 with swept_total = %d", m.SweptTotal)
	}
	if m.CacheEntries != 0 || m.CacheEntriesStale != 0 {
		t.Fatalf("after auto sweep: entries=%d stale=%d", m.CacheEntries, m.CacheEntriesStale)
	}
}

// TestStormPrewarm: a burst of PrewarmStorm epoch bumps triggers the
// controller-driven dense-table rebuild.
func TestStormPrewarm(t *testing.T) {
	s := mustService(t, Config{N: 16, PrewarmStorm: 3, SweepEvery: -1})
	if m := s.Metrics(); m.DenseRoutes != 0 {
		t.Fatalf("dense table before storm: %d routes", m.DenseRoutes)
	}
	links := []topology.Link{
		{Stage: 0, From: 1, Kind: topology.Minus},
		{Stage: 1, From: 2, Kind: topology.Plus},
		{Stage: 2, From: 3, Kind: topology.Minus},
	}
	for _, l := range links {
		if _, err := s.ReportFault(l); err != nil {
			t.Fatal(err)
		}
	}
	m := waitMetrics(t, s, "storm prewarm", func(m Metrics) bool { return m.Prewarms >= 1 })
	if m.DenseRoutes != 16 || m.PrewarmRoutes < 16 {
		t.Fatalf("after storm: dense=%d prewarm_routes=%d", m.DenseRoutes, m.PrewarmRoutes)
	}
	res, err := s.Route(0, 9, SchemeSSDT)
	if err != nil || !res.Cached {
		t.Fatalf("SSDT after storm prewarm: cached=%v err=%v", res.Cached, err)
	}
}

// TestPrewarmDrain: a draining service refuses operator prewarms like any
// other request.
func TestPrewarmDrain(t *testing.T) {
	s := mustService(t, Config{N: 8})
	s.Drain()
	if _, err := s.Prewarm(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Prewarm on drained service: %v", err)
	}
}

// TestConcurrentPrewarmChurn races routing traffic, epoch churn, operator
// sweeps and prewarms under the race detector; the -race run of the suite
// is the satellite's concurrent get/put/prewarm-under-epoch-bumps gate.
func TestConcurrentPrewarmChurn(t *testing.T) {
	s := mustService(t, Config{N: 32, Shards: 4, SweepEvery: 2, PrewarmStorm: 2})
	const G, R = 6, 200
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
					s.ReportFault(l)
				case 15:
					s.ReportRepair(l)
				case 25:
					if g == 0 {
						if _, err := s.Prewarm(); err != nil {
							t.Errorf("prewarm: %v", err)
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
	if total != G*R {
		t.Errorf("hits+misses = %d, want %d", total, G*R)
	}
	if m.CacheEntries != m.CacheEntriesLive+m.CacheEntriesStale {
		t.Errorf("entries %d != live %d + stale %d", m.CacheEntries, m.CacheEntriesLive, m.CacheEntriesStale)
	}
	s.Drain() // waits out any scheduled sweep/prewarm goroutines
}

// TestPrewarmEndpoint drives POST /prewarm and checks the metrics
// surface.
func TestPrewarmEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{N: 16})
	var pw PrewarmJSON
	postJSON(t, ts.URL+"/prewarm", struct{}{}, http.StatusOK, &pw)
	if pw.Routes != 16 {
		t.Fatalf("prewarm routes = %d, want 16", pw.Routes)
	}
	getJSON(t, ts.URL+"/prewarm", http.StatusBadRequest, nil)

	var route RouteJSON
	getJSON(t, ts.URL+"/route?src=2&dst=9&scheme=ssdt", http.StatusOK, &route)
	if !route.Cached {
		t.Fatal("first SSDT request after POST /prewarm not cached")
	}
	var m MetricsJSON
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.Service.DenseRoutes != 16 || m.Service.Prewarms != 1 {
		t.Fatalf("metrics: dense=%d prewarms=%d", m.Service.DenseRoutes, m.Service.Prewarms)
	}
	if m.Service.CacheBytes == 0 {
		t.Fatal("cache_bytes = 0")
	}
}
