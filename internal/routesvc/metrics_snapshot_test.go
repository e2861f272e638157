package routesvc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iadm/internal/topology"
)

// TestMetricsSnapshotConsistency is the regression test for the torn
// /metrics scrape: the cache population counters and the byte footprint
// must come from ONE pass over the shards. The pre-fix Metrics paired
// cache.stats() with a separate cache.memoryBytes() call; a sweep
// rebuilding shards between the two passes could report a footprint too
// small to hold the reported entries (impossible bits-per-route). Here
// TSDT writers grow the cache, a mutator bumps the epoch, and a sweeper
// shrinks shards out from under the scraper; every scrape must satisfy
//
//	CacheEntries == CacheEntriesLive + CacheEntriesStale
//	CacheBytes   >= CacheEntries * 8   (one uint64 word per slot, min)
//
// Runs under the race detector via `make race`.
func TestMetricsSnapshotConsistency(t *testing.T) {
	s, err := New(Config{
		N:      64,
		Shards: 4,
		// Admission off: the test saturates the slow path on purpose and
		// sheds would just thin the cache traffic it needs.
		Admission: AdmissionConfig{Disabled: true},
		// No automatic sweeps; the test drives sweeps itself so the
		// shrink-while-scraping interleaving is dense.
		SweepEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: walk the (src, dst) space so shards keep growing.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			x := uint64(seed)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				src := int(x % 64)
				dst := int((x >> 32) % 64)
				if _, err := s.Route(src, dst, SchemeTSDT); err != nil && !errors.Is(err, ErrDraining) {
					t.Errorf("route: %v", err)
					return
				}
			}
		}(w)
	}

	// Mutator: toggle one link so epoch bumps keep marking entries stale.
	wg.Add(1)
	go func() {
		defer wg.Done()
		links := []topology.Link{{Stage: 2, From: 0, Kind: topology.Plus}}
		for !stop.Load() {
			if _, err := s.ApplyFaults(links, nil); err != nil {
				t.Errorf("fault: %v", err)
				return
			}
			if _, err := s.ApplyRepairs(links); err != nil {
				t.Errorf("repair: %v", err)
				return
			}
		}
	}()

	// Sweeper: rebuild shards into smaller slabs while scrapes run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.Sweep()
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	for scrapes := 0; time.Now().Before(deadline); scrapes++ {
		m := s.Metrics()
		if m.CacheEntries != m.CacheEntriesLive+m.CacheEntriesStale {
			t.Fatalf("scrape %d: entries %d != live %d + stale %d",
				scrapes, m.CacheEntries, m.CacheEntriesLive, m.CacheEntriesStale)
		}
		if min := uint64(m.CacheEntries) * 8; m.CacheBytes < min {
			t.Fatalf("scrape %d: torn snapshot: cache_bytes %d cannot hold %d entries (need >= %d)",
				scrapes, m.CacheBytes, m.CacheEntries, min)
		}
	}
	stop.Store(true)
	wg.Wait()
}
