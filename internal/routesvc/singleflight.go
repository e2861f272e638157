package routesvc

import (
	"sync"

	"iadm/internal/core"
)

// flightKey scopes request coalescing. The epoch is the one the request
// loaded before its cache lookup, so a request that arrives after a fault
// or repair never joins a flight started under an older map. A flight
// reports the epoch its tag was computed against, which every caller that
// shares it is answered with.
type flightKey struct {
	key   cacheKey
	epoch uint64
}

type flightCall struct {
	wg    sync.WaitGroup
	tag   core.Tag
	epoch uint64
	err   error
	dups  int // callers that joined, counted under flightGroup.mu
}

// callPool recycles the calls nobody joined, so an uncontended
// computation allocates nothing.
var callPool = sync.Pool{New: func() any { return new(flightCall) }}

// flightGroup deduplicates concurrent tag computations: under a thundering
// herd for one (src, dst, epoch), exactly one caller computes and
// the rest wait for its result (the singleflight pattern, reimplemented
// here because the repo takes no external dependencies). The zero value is
// ready to use.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

// do runs fn once per in-flight key; duplicate callers block until the
// leader finishes and share its result. shared reports whether this caller
// joined an existing flight rather than leading one.
func (g *flightGroup) do(k flightKey, fn func() (core.Tag, uint64, error)) (tag core.Tag, epoch uint64, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[flightKey]*flightCall)
	}
	if c, ok := g.m[k]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.tag, c.epoch, c.err, true
	}
	c := callPool.Get().(*flightCall)
	c.wg.Add(1)
	g.m[k] = c
	g.mu.Unlock()

	tag, epoch, err = fn()
	c.tag, c.epoch, c.err = tag, epoch, err
	c.wg.Done()

	// Joiners register under the lock while the call is in the map, so
	// once it is deleted with no joiners nothing else can reach it.
	g.mu.Lock()
	delete(g.m, k)
	unseen := c.dups == 0
	g.mu.Unlock()
	if unseen {
		c.tag, c.err = core.Tag{}, nil
		callPool.Put(c)
	}
	return tag, epoch, err, false
}
