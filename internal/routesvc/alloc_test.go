package routesvc

import (
	"math/rand"
	"testing"
)

// TestServingAllocs is the serving layer's exact allocs/op gate: a cached
// TSDT pair and any SSDT pair route with no allocation, and RouteBatch allocates only its []Result at every batch size,
// lane-fill remainders included.
func TestServingAllocs(t *testing.T) {
	s := mustService(t, Config{N: 1024})
	for _, scheme := range []Scheme{SchemeSSDT, SchemeTSDT} {
		if _, err := s.Route(3, 700, scheme); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = s.Route(3, 700, scheme) }); n != 0 {
			t.Errorf("Route %v on a cached pair: %v allocs/op, want 0", scheme, n)
		}
	}
	// A cold TSDT miss computes, caches and answers without allocating
	// too, outside amortized cache growth, while its route is unblocked.
	next := 0
	if n := testing.AllocsPerRun(500, func() {
		next++
		_, _ = s.Route(next%1024, next*7%1024, SchemeTSDT)
	}); n != 0 {
		t.Errorf("Route on a cold TSDT pair: %v allocs/op, want 0", n)
	}
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 64, 65, 1024} {
		reqs := make([]Request, size)
		for i := range reqs {
			reqs[i] = Request{Src: rng.Intn(1024), Dst: rng.Intn(1024), Scheme: SchemeSSDT}
			if i%10 == 0 {
				reqs[i] = Request{Src: rng.Intn(16), Dst: rng.Intn(16), Scheme: SchemeTSDT}
			}
		}
		if _, err := s.RouteBatch(reqs); err != nil { // caches the TSDT pairs
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = s.RouteBatch(reqs) }); n != 1 {
			t.Errorf("RouteBatch of %d: %v allocs/op, want 1 (the []Result)", size, n)
		}
	}
}
