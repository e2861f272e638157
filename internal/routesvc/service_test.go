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

func mustService(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fault and repair report one link through the batch mutation API and
// return how many links changed.
func fault(t testing.TB, s *Service, l topology.Link) int {
	t.Helper()
	changed, err := s.ApplyFaults([]topology.Link{l}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

func repair(t testing.TB, s *Service, l topology.Link) int {
	t.Helper()
	changed, err := s.ApplyRepairs([]topology.Link{l})
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

func TestRouteBothSchemes(t *testing.T) {
	s := mustService(t, Config{N: 8})
	for _, scheme := range []Scheme{SchemeTSDT, SchemeSSDT} {
		res, err := s.Route(1, 6, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Tag.Destination() != 6 {
			t.Errorf("%v tag destination = %d", scheme, res.Tag.Destination())
		}
		if path := res.Tag.Follow(s.Params(), res.Src); res.Src != 1 || path.Destination() != 6 {
			t.Errorf("%v tag %v from %d walks %v", scheme, res.Tag, res.Src, path)
		}
		// Only a TSDT tag is computed; an SSDT tag is the destination.
		if res.Cached != (scheme == SchemeSSDT) {
			t.Errorf("%v first request cached = %v", scheme, res.Cached)
		}
		res2, err := s.Route(1, 6, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Cached || res2.Tag != res.Tag {
			t.Errorf("%v second request not served from cache", scheme)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	s := mustService(t, Config{N: 8})
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {8, 0}, {0, 8}} {
		if _, err := s.Route(pair[0], pair[1], SchemeTSDT); !errors.Is(err, ErrInvalid) {
			t.Errorf("Route(%d, %d) err = %v, want ErrInvalid", pair[0], pair[1], err)
		}
	}
	if _, err := s.Route(0, 1, Scheme(9)); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad scheme err = %v", err)
	}
	m := s.Metrics()
	if m.Invalid != 5 || m.Requests != 5 {
		t.Errorf("invalid=%d requests=%d, want 5/5", m.Invalid, m.Requests)
	}
}

// TestNoStaleTagAcrossFault is the acceptance check for epoch
// invalidation: once a fault (or repair) report has returned, no
// subsequently served TSDT tag may route through a link blocked at request
// time. Sequential churn makes "at request time" exact.
func TestNoStaleTagAcrossFault(t *testing.T) {
	s := mustService(t, Config{N: 16, Shards: 4})
	rng := rand.New(rand.NewSource(7))
	p := s.Params()

	var blocked []topology.Link
	verify := func() {
		for q := 0; q < 20; q++ {
			src, dst := rng.Intn(16), rng.Intn(16)
			res, err := s.Route(src, dst, SchemeTSDT)
			if err != nil {
				if errors.Is(err, core.ErrNoPath) {
					continue // pair genuinely disconnected right now
				}
				t.Fatalf("Route(%d, %d): %v", src, dst, err)
			}
			path := res.Tag.Follow(p, src)
			for _, l := range path.Links {
				for _, b := range blocked {
					if l == b {
						t.Fatalf("stale tag: path %v uses link %v blocked before the request (epoch %d)",
							path, b, res.Epoch)
					}
				}
			}
		}
	}

	verify()
	for round := 0; round < 40; round++ {
		if len(blocked) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(blocked))
			repair(t, s, blocked[i])
			blocked = append(blocked[:i], blocked[i+1:]...)
		} else {
			l := topology.Link{
				Stage: rng.Intn(p.Stages()),
				From:  rng.Intn(p.Size()),
				Kind:  topology.LinkKind(rng.Intn(3)),
			}
			fault(t, s, l)
			already := false
			for _, b := range blocked {
				if b == l {
					already = true
				}
			}
			if !already {
				blocked = append(blocked, l)
			}
		}
		verify()
	}
}

// TestSSDTEpochExempt checks Theorem 3.1's serving consequence: an SSDT
// tag is the destination for every source and survives every
// fault/repair, while it reports the epoch current at request time.
func TestSSDTEpochExempt(t *testing.T) {
	s := mustService(t, Config{N: 8})
	r1, err := s.Route(1, 5, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	// Same destination from a different source: same tag, own route.
	r2, err := s.Route(2, 5, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("SSDT request reported a tag computation")
	}
	if r2.Tag != r1.Tag {
		t.Errorf("SSDT tags differ across sources: %v vs %v", r1.Tag, r2.Tag)
	}
	if d := r2.Tag.Follow(s.Params(), 2).Destination(); d != 5 {
		t.Errorf("SSDT tag %v from source 2 reaches %d", r2.Tag, d)
	}

	fault(t, s, topology.Link{Stage: 0, From: 1, Kind: topology.Plus})
	r3, err := s.Route(1, 5, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached || r3.Tag != r1.Tag || r3.Epoch != 1 {
		t.Errorf("SSDT after a fault = %+v, want the same tag, cached, at epoch 1", r3)
	}

	// The TSDT entry for the same pair is NOT exempt.
	if _, err := s.Route(1, 5, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	fault(t, s, topology.Link{Stage: 1, From: 3, Kind: topology.Minus})
	r5, err := s.Route(1, 5, SchemeTSDT)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Cached {
		t.Error("TSDT entry served across an epoch bump")
	}
	m := s.Metrics()
	if m.Invalidations != 2 || m.Epoch != 2 {
		t.Errorf("invalidations=%d epoch=%d, want 2/2", m.Invalidations, m.Epoch)
	}
}

// TestCoalescing holds one computation open and checks a thundering herd
// on the same key computes exactly once.
func TestCoalescing(t *testing.T) {
	s := mustService(t, Config{N: 32})
	const G = 8
	gate := make(chan struct{})
	entered := make(chan struct{}, G+1)
	s.testComputeHook = func() {
		entered <- struct{}{}
		<-gate
	}

	var wg sync.WaitGroup
	results := make([]Result, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := s.Route(3, 17, SchemeTSDT)
			if err != nil {
				t.Errorf("Route: %v", err)
			}
			results[g] = res
		}(g)
	}

	<-entered // the leader is inside compute
	// Wait until every goroutine has entered route() (each bumps the
	// request counter first), give the stragglers a beat to reach the
	// flight, then release the leader.
	for s.requests.Load() != G {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	m := s.Metrics()
	if m.TSDT.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 compute for the herd", m.TSDT.Misses)
	}
	if m.TSDT.Hits != G-1 {
		t.Errorf("hits = %d, want %d", m.TSDT.Hits, G-1)
	}
	if m.TSDT.Coalesced == 0 {
		t.Error("no request reported coalesced")
	}
	if len(entered) != 0 {
		t.Errorf("%d extra computations started", len(entered))
	}
	for g := 1; g < G; g++ {
		if results[g].Tag != results[0].Tag {
			t.Errorf("herd members got different tags")
		}
	}
}

// TestDrain checks the graceful-drain contract: in-flight requests finish,
// new requests are refused, and Drain returns only after the last
// in-flight request completed.
func TestDrain(t *testing.T) {
	s := mustService(t, Config{N: 8})
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.testComputeHook = func() {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}

	slowDone := make(chan Result, 1)
	go func() {
		res, err := s.Route(2, 7, SchemeTSDT)
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
		}
		slowDone <- res
	}()
	<-entered

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Drain must be waiting on the in-flight request, and refusing new
	// admissions meanwhile.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Route(0, 1, SchemeTSDT); !errors.Is(err, ErrDraining) {
		t.Fatalf("route during drain: err = %v, want ErrDraining", err)
	}
	if _, err := s.RouteBatch([]Request{{Src: 0, Dst: 1}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("batch during drain: err = %v, want ErrDraining", err)
	}
	if _, err := s.ApplyFaults([]topology.Link{{Stage: 0, From: 0, Kind: topology.Plus}}, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("fault during drain: err = %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	res := <-slowDone
	if res.Tag.Destination() != 7 {
		t.Errorf("drained request result: %+v", res)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after in-flight request finished")
	}
	s.Drain() // idempotent
	if !s.Metrics().Draining {
		t.Error("metrics do not report draining")
	}
}

func TestRouteBatch(t *testing.T) {
	s := mustService(t, Config{N: 8})
	// Disconnect pair (5,5): a straight-link fault on an all-straight path
	// cannot be bypassed (Theorems 3.3/3.4).
	fault(t, s, topology.Link{Stage: 1, From: 5, Kind: topology.Straight})
	results, err := s.RouteBatch([]Request{
		{Src: 1, Dst: 6, Scheme: SchemeTSDT},
		{Src: 1, Dst: 6, Scheme: SchemeTSDT},  // same key: cache hit
		{Src: 5, Dst: 5, Scheme: SchemeTSDT},  // unroutable
		{Src: 0, Dst: 99, Scheme: SchemeSSDT}, // invalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("routable items failed: %v / %v", results[0].Err, results[1].Err)
	}
	if !results[1].Cached {
		t.Error("duplicate batch item missed the cache")
	}
	if !errors.Is(results[2].Err, core.ErrNoPath) {
		t.Errorf("unroutable item err = %v", results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrInvalid) {
		t.Errorf("invalid item err = %v", results[3].Err)
	}
	m := s.Metrics()
	if m.Unroutable != 1 {
		t.Errorf("unroutable = %d", m.Unroutable)
	}
}

// TestBatchLatencyBands pins the latency histogram: every RouteBatch call
// lands in the band of its size and every Route call in band "1".
func TestBatchLatencyBands(t *testing.T) {
	s := mustService(t, Config{N: 64})
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 3, 64, 65, 300} {
		reqs := make([]Request, size)
		for i := range reqs {
			reqs[i] = Request{Src: rng.Intn(64), Dst: rng.Intn(64), Scheme: Scheme(i % 2)}
		}
		results, err := s.RouteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("size %d item %d: %v", size, i, res.Err)
			}
			if d := res.Tag.Follow(s.Params(), res.Src).Destination(); d != res.Dst {
				t.Fatalf("size %d item %d: tag %v from %d reaches %d", size, i, res.Tag, res.Src, d)
			}
		}
	}
	if _, err := s.Route(1, 2, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if len(m.BatchLatency) != numBatchBands {
		t.Fatalf("BatchLatency has %d bands, want %d", len(m.BatchLatency), numBatchBands)
	}
	wantCounts := map[string]uint64{"1": 2, "2-4": 1, "5-16": 0, "17-64": 1, "65-256": 1, "257+": 1}
	for _, b := range m.BatchLatency {
		if b.Count != wantCounts[b.Batch] {
			t.Errorf("band %q count = %d, want %d", b.Batch, b.Count, wantCounts[b.Batch])
		}
		if b.Count > 0 && (b.SumNs == 0 || b.AvgUS != float64(b.SumNs)/float64(b.Count)/1e3) {
			t.Errorf("band %q: %d samples, sum %d ns, avg %v µs", b.Batch, b.Count, b.SumNs, b.AvgUS)
		}
	}
}

func TestSweep(t *testing.T) {
	s := mustService(t, Config{N: 8, Shards: 2})
	for d := 0; d < 8; d++ {
		if _, err := s.Route(0, d, SchemeTSDT); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Route(0, d, SchemeSSDT); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().CacheEntries; got != 8 {
		t.Fatalf("cache entries = %d, want the 8 TSDT ones (SSDT needs no store)", got)
	}
	fault(t, s, topology.Link{Stage: 0, From: 0, Kind: topology.Minus})
	if _, err := s.Route(1, 1, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	if removed := s.Sweep(); removed != 8 {
		t.Errorf("sweep removed %d entries, want the 8 stale ones", removed)
	}
	if got := s.Metrics().CacheEntries; got != 1 {
		t.Errorf("cache entries after sweep = %d, want the 1 live one", got)
	}
}

// TestConcurrentChurn races routers against fault churn, auto sweeps and
// operator sweeps under the race detector and then checks counter
// conservation.
func TestConcurrentChurn(t *testing.T) {
	s := mustService(t, Config{N: 32, Shards: 8, SweepEvery: 2})
	const G, R = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			l := topology.Link{Stage: g % 5, From: g, Kind: topology.Plus}
			for r := 0; r < R; r++ {
				scheme := SchemeTSDT
				if r%2 == 0 {
					scheme = SchemeSSDT
				}
				if _, err := s.Route(rng.Intn(32), rng.Intn(32), scheme); err != nil && !errors.Is(err, core.ErrNoPath) {
					t.Errorf("route: %v", err)
					return
				}
				switch r % 50 {
				case 10:
					s.ApplyFaults([]topology.Link{l}, nil)
				case 30:
					s.ApplyRepairs([]topology.Link{l})
				case 40:
					if g == 1 {
						s.Sweep()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	m := s.Metrics()
	// Every valid request is exactly one hit or one miss (unroutable ones
	// still count as the miss that computed the failure).
	total := m.SSDT.Hits + m.SSDT.Misses + m.TSDT.Hits + m.TSDT.Misses
	if total != G*R {
		t.Errorf("hits+misses = %d, want %d", total, G*R)
	}
	if m.SSDT.Misses != 0 || m.SSDT.Hits != G*R/2 {
		t.Errorf("SSDT stats under churn %+v, want %d hits and no misses", m.SSDT, G*R/2)
	}
	if m.CacheEntries != m.CacheEntriesLive+m.CacheEntriesStale {
		t.Errorf("entries %d != live %d + stale %d", m.CacheEntries, m.CacheEntriesLive, m.CacheEntriesStale)
	}
	s.Drain() // waits out any scheduled sweep
}
