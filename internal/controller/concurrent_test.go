package controller

import (
	"sync"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// TestStatsConcurrentRouteTagAt hammers a fixed pair set from many
// goroutines on a frozen map: every tag must come back at epoch 0 as the
// all-C tag of its destination, and the Stats snapshot must count no
// failures. A fault then moves every later tag to epoch 1, around it.
func TestStatsConcurrentRouteTagAt(t *testing.T) {
	c := mustNew(t, 16)
	const G, R = 8, 400
	pairs := [][2]int{{0, 5}, {3, 3}, {7, 12}, {15, 1}, {9, 9}, {2, 14}}

	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < R; r++ {
				p := pairs[(g+r)%len(pairs)]
				tag, epoch, err := c.RouteTagAt(p[0], p[1])
				if err != nil {
					t.Errorf("RouteTagAt(%d, %d): %v", p[0], p[1], err)
					return
				}
				if epoch != 0 || tag != core.MustTag(c.Params(), p[1]) {
					t.Errorf("RouteTagAt(%d, %d) = %v at epoch %d on a clean map", p[0], p[1], tag, epoch)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats on a clean map = %+v, want zero", st)
	}

	// A fault moves the epoch: the same pair is recomputed around it.
	l := topology.Link{Stage: 0, From: 0, Kind: topology.Minus}
	c.ReportFault(l)
	for i := 0; i < 3; i++ {
		tag, epoch, err := c.RouteTagAt(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 1 {
			t.Errorf("tag computed at epoch %d, want 1", epoch)
		}
		avoids(t, c, 0, tag, []topology.Link{l})
	}
	if st := c.Stats(); st != (Stats{Fails: 0, Epoch: 1, BlockedLinks: 1}) {
		t.Errorf("stats after fault: %+v", st)
	}
}

// TestReportsReturnEpochs checks that every effective map change (and only
// those) returns the epoch it produced, each epoch exactly once, also
// under concurrent mutators and readers.
func TestReportsReturnEpochs(t *testing.T) {
	c := mustNew(t, 8)
	l := topology.Link{Stage: 1, From: 2, Kind: topology.Plus}
	if e := c.ReportFault(l); e != 1 {
		t.Fatalf("first fault produced epoch %d, want 1", e)
	}
	if e := c.ReportFault(l); e != 0 {
		t.Errorf("duplicate fault produced epoch %d", e)
	}
	if e := c.ReportRepair(l); e != 2 {
		t.Fatalf("repair produced epoch %d, want 2", e)
	}
	if e := c.ReportRepair(l); e != 0 {
		t.Errorf("duplicate repair produced epoch %d", e)
	}

	// Concurrent churn: one returned epoch per effective change.
	var wg sync.WaitGroup
	const G = 4
	got := make([][]uint64, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ml := topology.Link{Stage: 0, From: g, Kind: topology.Minus}
			for i := 0; i < 50; i++ {
				got[g] = append(got[g], c.ReportFault(ml))
				c.RouteTag(g, (g+3)%8)
				got[g] = append(got[g], c.ReportRepair(ml))
			}
		}(g)
	}
	wg.Wait()
	seen := make([]bool, c.Epoch()+1)
	seen[1], seen[2] = true, true
	for _, es := range got {
		for _, e := range es {
			if e == 0 || e >= uint64(len(seen)) || seen[e] {
				t.Fatalf("epoch %d returned twice, as no-op, or past the current epoch %d", e, c.Epoch())
			}
			seen[e] = true
		}
	}
	if want := uint64(2 + 2*50*G); c.Epoch() != want {
		t.Errorf("epoch %d after churn, want %d", c.Epoch(), want)
	}
}
