package routesvc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// TestFlightGroupSharesResultAndError pins the singleflight contract:
// joiners share the leader's tag and epoch, exactly one compute runs, and the key is
// retired after the flight so later calls (and their errors) are fresh.
func TestFlightGroupSharesResultAndError(t *testing.T) {
	p := topology.MustParams(8)
	var g flightGroup
	k := flightKey{key: cacheKey{src: 1, dst: 2}, epoch: 0}

	gate := make(chan struct{})
	started := make(chan struct{})
	var computes atomic.Int32
	go func() {
		g.do(k, func() (core.Tag, uint64, error) {
			close(started)
			<-gate
			computes.Add(1)
			return core.MustTag(p, 2), 3, nil
		})
	}()
	<-started

	const J = 4
	var wg sync.WaitGroup
	var arrived, sharedCount atomic.Int32
	for j := 0; j < J; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			tag, epoch, err, shared := g.do(k, func() (core.Tag, uint64, error) {
				computes.Add(1)
				return core.MustTag(p, 2), 3, nil
			})
			if err != nil || tag.Destination() != 2 || epoch != 3 {
				t.Errorf("joiner got (%v, %d, %v)", tag, epoch, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Release the leader only once every joiner is at the flight door (the
	// step from `arrived` to g.do is a few instructions; the settle sleep
	// covers descheduling in between).
	for arrived.Load() != J {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1", got)
	}
	if got := sharedCount.Load(); got != J {
		t.Fatalf("shared = %d, want %d", got, J)
	}

	// After the flight retires, errors propagate to a fresh herd.
	boom := errors.New("boom")
	_, _, err, shared := g.do(k, func() (core.Tag, uint64, error) { return core.Tag{}, 0, boom })
	if !errors.Is(err, boom) || shared {
		t.Fatalf("fresh flight: (%v, %v)", err, shared)
	}
}
