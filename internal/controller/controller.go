// Package controller implements the paper's network controller (Section
// 5): "Algorithm BACKTRACK (and REROUTE) presumes existence of the
// knowledge of all blockages in the network. The network controller is
// responsible for collecting this information and maintaining a global map
// of blockages, which is accessible to every sender of the messages in
// order to compute a path to avoid the blockages."
//
// The controller is exactly that map: it accepts fault and repair reports,
// versions the map with an epoch, and computes rerouting tags with
// algorithm REROUTE against it, returning each tag with the epoch of the
// map it was checked against. It memoizes nothing; callers that cache tags
// (routesvc) stamp them with that epoch. It is safe for concurrent use by
// multiple senders.
package controller

import (
	"fmt"
	"sync"
	"sync/atomic"

	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// Controller is the global routing authority of one IADM network.
type Controller struct {
	p topology.Params

	mu  sync.RWMutex
	blk *blockage.Set

	// epoch is incremented only under the write lock, on every map
	// change; reads are lock-free, and a load made under the read lock
	// names exactly the map the lock protects until it is released.
	epoch atomic.Uint64

	fails atomic.Uint64 // rerouting failures (bumped under the read lock)
}

// New creates a controller for a fault-free network of size N.
func New(N int) (*Controller, error) {
	p, err := topology.NewParams(N)
	if err != nil {
		return nil, err
	}
	return &Controller{p: p, blk: blockage.NewSet(p)}, nil
}

// Params returns the network parameters.
func (c *Controller) Params() topology.Params { return c.p }

// ReportFault records a blocked link and returns the epoch the change
// produced, or 0 when the link was already blocked (a no-op report).
func (c *Controller) ReportFault(l topology.Link) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blk.Blocked(l) {
		return 0
	}
	c.blk.Block(l)
	return c.epoch.Add(1)
}

// ReportRepair clears a blocked link and returns the epoch the change
// produced, or 0 when the link was not blocked.
func (c *Controller) ReportRepair(l topology.Link) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.blk.Blocked(l) {
		return 0
	}
	c.blk.Unblock(l)
	return c.epoch.Add(1)
}

// ValidateSwitchFault checks that a switch-fault report would be accepted
// (the switch exists and its blockage has an input-link transformation)
// without applying it, so batch ingest can validate every report before
// mutating the map.
func (c *Controller) ValidateSwitchFault(sw topology.Switch) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blk.ValidateSwitch(sw)
}

// ReportSwitchFault records a faulty switch via the paper's input-link
// transformation. It returns how many input links were newly blocked
// (already blocked inputs, e.g. from an earlier link report, are no-ops)
// and the epoch the change produced, or 0 when nothing was blocked.
func (c *Controller) ReportSwitchFault(sw topology.Switch) (int, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blocked, err := c.blk.BlockSwitch(sw)
	if err != nil || blocked == 0 {
		return 0, 0, err
	}
	return blocked, c.epoch.Add(1), nil
}

// Faults returns a snapshot of the blocked links.
func (c *Controller) Faults() []topology.Link {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blk.Links()
}

// Epoch returns the current map version; it changes whenever the blockage
// map does. It is lock-free.
func (c *Controller) Epoch() uint64 { return c.epoch.Load() }

// RouteTag is RouteTagAt without the epoch.
func (c *Controller) RouteTag(s, d int) (core.Tag, error) {
	tag, _, err := c.RouteTagAt(s, d)
	return tag, err
}

// RouteTagAt returns a TSDT tag routing s to d around the blockage map
// and the epoch of that map, or an error wrapping core.ErrNoPath when the
// network is disconnected for the pair. The tag is computed under the read
// lock, which every epoch bump waits out, so the returned epoch names
// exactly the map the tag was checked against.
func (c *Controller) RouteTagAt(s, d int) (core.Tag, uint64, error) {
	if !c.p.ValidSwitch(s) || !c.p.ValidSwitch(d) {
		return core.Tag{}, 0, fmt.Errorf("controller: invalid pair (%d, %d)", s, d)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	epoch := c.epoch.Load()
	tag := core.MustTag(c.p, d)
	// REROUTE returns the all-C tag unchanged when its route is clear;
	// checking that on the packed walk first keeps the common case
	// allocation-free.
	if _, hit := core.RouteTSDTPacked(c.p, s, tag).FirstBlocked(c.p, c.blk); hit {
		var err error
		if tag, _, err = core.Reroute(c.p, c.blk, s, tag); err != nil {
			c.fails.Add(1)
			return core.Tag{}, epoch, err
		}
	}
	return tag, epoch, nil
}

// Stats is a point-in-time snapshot of the controller's map state.
type Stats struct {
	Fails        uint64 `json:"fails"`         // rerouting failures (pair disconnected)
	Epoch        uint64 `json:"epoch"`         // blockage-map version
	BlockedLinks int    `json:"blocked_links"` // currently blocked links
}

// Stats reports a consistent snapshot: rerouting failures, the current
// epoch and the number of blocked links.
func (c *Controller) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{Fails: c.fails.Load(), Epoch: c.epoch.Load(), BlockedLinks: c.blk.Count()}
}

// Connectivity returns the fraction of (s, d) pairs currently routable.
func (c *Controller) Connectivity() float64 {
	c.mu.RLock()
	blk := c.blk.Clone()
	c.mu.RUnlock()
	N := c.p.Size()
	ok := 0
	for s := 0; s < N; s++ {
		for d := 0; d < N; d++ {
			if _, _, err := core.Reroute(c.p, blk, s, core.MustTag(c.p, d)); err == nil {
				ok++
			}
		}
	}
	return float64(ok) / float64(N*N)
}
