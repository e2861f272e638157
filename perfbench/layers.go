package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"iadm/internal/blockage"
	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/fleet"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// Per-layer replays. After a traced serving run the recorded request
// stream is replayed, single-threaded, straight into the public entry
// points of the layers below the wire — the HTTP handler through an
// httptest recorder, Service.Route/RouteBatch, controller.RouteTag and
// ReportFault/ReportRepair, the sliced kernel and the dense SSDT table —
// each on a fresh instance. Allocation counts come from runtime.MemStats
// deltas taken with no other goroutine of the benchmark running, so the
// kernel and table counts are exact.

const (
	replayBatches = 64    // of client 0's batch cycle
	replaySingles = 20000 // of client 0's routed-churn requests
)

// kernelLayers routes the items through RouteSSDTSliced in 64-lane
// blocks and looks every destination up in a full dense SSDT table.
func kernelLayers(m metrics, items []item) {
	p := topology.MustParams(netSize)
	ns := core.NewNetworkState(p)
	blk := blockage.NewSet(p)
	srcs := make([]int, len(items))
	dsts := make([]int, len(items))
	for i, it := range items {
		srcs[i], dsts[i] = it.src, it.dst
	}
	var lb core.LaneBlock
	paths := make([]core.PackedPath, 0, core.Lanes)
	sliced := func() {
		for lo := 0; lo < len(items); lo += core.Lanes {
			hi := min(lo+core.Lanes, len(items))
			if err := lb.LoadInts(p, srcs[lo:hi], dsts[lo:hi]); err != nil {
				panic(err) // generated pairs are always valid
			}
			core.RouteSSDTSliced(p, ns, blk, &lb)
			paths = lb.PathsInto(paths[:0])
		}
	}
	sliced()
	n, _, d := allocs(sliced)
	m.set("core.sliced_ns_per_route", float64(d)/float64(len(items)))
	m.set("core.sliced_allocs", float64(n))

	tbl := core.NewSSDTTable(p)
	for d := 0; d < netSize; d++ {
		if err := tbl.Store(d, core.MustTag(p, d)); err != nil {
			panic(err)
		}
	}
	var sink int
	lookup := func() {
		for _, d := range dsts {
			if t, ok := tbl.Lookup(d); ok {
				sink += t.Destination()
			}
		}
	}
	lookup()
	n, _, d = allocs(lookup)
	if sink < 0 {
		panic("unreachable")
	}
	m.set("core.dense_lookup_ns", float64(d)/float64(len(dsts)))
	m.set("core.dense_lookup_allocs", float64(n))
}

// batchLayers replays client 0's first batches.
func batchLayers(m metrics, in *batchInputs) error {
	batches := in.items[0][:replayBatches]
	bodies := in.bodies[0][:replayBatches]
	var flat []item
	for _, b := range batches {
		flat = append(flat, b...)
	}
	routes := float64(len(flat))
	kernelLayers(m, flat)
	if err := controllerLayer(m, flat, nil, nil); err != nil {
		return err
	}

	multi := routesvc.NewMulti(routesvc.Config{N: netSize, Prewarm: true}, 8)
	defer multi.Drain()
	svc, err := multi.Get("")
	if err != nil {
		return err
	}
	reqs := make([][]routesvc.Request, len(batches))
	for i, b := range batches {
		for _, it := range b {
			reqs[i] = append(reqs[i], routesvc.Request{Src: it.src, Dst: it.dst, Scheme: it.scheme})
		}
	}
	var batchErr error
	routeAll := func() {
		for _, r := range reqs {
			if _, err := svc.RouteBatch(r); err != nil && batchErr == nil {
				batchErr = err
			}
		}
	}
	routeAll()
	before := svc.Metrics()
	n, _, d := allocs(routeAll)
	after := svc.Metrics()
	if batchErr != nil {
		return fmt.Errorf("RouteBatch replay: %w", batchErr)
	}
	m.set("svc.batch_ns_per_route", float64(d)/routes)
	m.set("svc.batch_allocs_per_route", float64(n)/routes)
	if blocks := after.SlicedBlocks - before.SlicedBlocks; blocks > 0 {
		m.set("svc.sliced_lane_fill", float64(after.SlicedLanes-before.SlicedLanes)/float64(core.Lanes*blocks))
	}

	h := routesvc.NewMultiHandler(multi)
	var httpErr error
	serveAll := func() {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK && httpErr == nil {
				httpErr = fmt.Errorf("handler replay: status %d", rec.Code)
			}
		}
	}
	serveAll()
	n, b, d := allocs(serveAll)
	if httpErr != nil {
		return httpErr
	}
	m.set("http.replay_ns_per_route", float64(d)/routes)
	m.set("http.replay_allocs_per_route", float64(n)/routes)
	m.set("http.replay_bytes_per_route", float64(b)/routes)
	return nil
}

// churnLayers replays client 0's first routed-churn requests, applying its
// link toggles at their stream positions.
func churnLayers(m metrics, in *churnInputs, ring *fleet.Ring) error {
	reqs := in.reqs[0][:replaySingles]
	ops := in.ops[0]
	flat := make([]item, len(reqs))
	for i, s := range reqs {
		flat[i] = s.item
	}
	kernelLayers(m, flat)
	if err := controllerLayer(m, flat, reqs, ops); err != nil {
		return err
	}

	names := netNames()
	var sink int
	owner := func() {
		for _, s := range reqs {
			o, _ := ring.Owner(names[s.net], s.src, s.dst)
			sink += o
		}
	}
	owner()
	_, _, d := allocs(owner)
	m.set("fleet.ring_owner_ns", float64(d)/float64(len(reqs)))

	multi := routesvc.NewMulti(routesvc.Config{N: netSize, Prewarm: true}, 8)
	defer multi.Drain()
	svcs := make([]*routesvc.Service, churnNets)
	for i, name := range names {
		var err error
		if svcs[i], err = multi.Get(name); err != nil {
			return err
		}
	}
	// Route calls are measured in segments between toggles, which run
	// outside the measurement.
	toggle := func(op churnOp) error {
		links := []topology.Link{op.link}
		var err error
		if op.repair {
			_, err = svcs[op.net].ApplyRepairs(links)
		} else {
			_, err = svcs[op.net].ApplyFaults(links, nil)
		}
		return err
	}
	segments := func(route func(s single) error) (mallocs, bytes uint64, ns int64, err error) {
		for lo := 0; lo < len(reqs); {
			if op := reqs[lo].op; op >= 0 {
				if err := toggle(ops[op]); err != nil {
					return 0, 0, 0, err
				}
			}
			hi := lo + 1
			for hi < len(reqs) && reqs[hi].op < 0 {
				hi++
			}
			var segErr error
			n, b, d := allocs(func() {
				for _, s := range reqs[lo:hi] {
					if err := route(s); err != nil && segErr == nil {
						segErr = err
					}
				}
			})
			if segErr != nil {
				return 0, 0, 0, segErr
			}
			mallocs, bytes, ns = mallocs+n, bytes+b, ns+d
			lo = hi
		}
		return mallocs, bytes, ns, nil
	}
	n, _, d, err := segments(func(s single) error {
		_, err := svcs[s.net].Route(s.src, s.dst, s.scheme)
		return err
	})
	if err != nil {
		return fmt.Errorf("Route replay: %w", err)
	}
	m.set("svc.route_ns", float64(d)/float64(len(reqs)))
	m.set("svc.route_allocs", float64(n)/float64(len(reqs)))

	// The handler replay runs on its own Multi so its TSDT pairs are as
	// cold as they were on the wire.
	hmulti := routesvc.NewMulti(routesvc.Config{N: netSize, Prewarm: true}, 8)
	defer hmulti.Drain()
	for i, name := range names {
		if svcs[i], err = hmulti.Get(name); err != nil {
			return err
		}
	}
	h := routesvc.NewMultiHandler(hmulti)
	n, b, d, err := segments(func(s single) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, s.url, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler replay %s: status %d", s.url, rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("http.replay_ns_per_route", float64(d)/float64(len(reqs)))
	m.set("http.replay_allocs_per_route", float64(n)/float64(len(reqs)))
	m.set("http.replay_bytes_per_route", float64(b)/float64(len(reqs)))
	return nil
}

// controllerLayer replays the TSDT items into controller.RouteTag, one
// controller per partition, applying the toggles of ops (when given) in
// stream order through ReportFault/ReportRepair.
func controllerLayer(m metrics, items []item, reqs []single, ops []churnOp) error {
	ctls := make([]*controller.Controller, churnNets)
	for i := range ctls {
		c, err := controller.New(netSize)
		if err != nil {
			return err
		}
		ctls[i] = c
	}
	var routeNs, mutNs time.Duration
	var routes, muts int
	for i, it := range items {
		net := 0
		if reqs != nil {
			net = reqs[i].net
			if op := reqs[i].op; op >= 0 {
				o := ops[op]
				t0 := time.Now()
				if o.repair {
					ctls[o.net].ReportRepair(o.link)
				} else {
					ctls[o.net].ReportFault(o.link)
				}
				mutNs += time.Since(t0)
				muts++
			}
		}
		if it.scheme != routesvc.SchemeTSDT {
			continue
		}
		t0 := time.Now()
		if _, err := ctls[net].RouteTag(it.src, it.dst); err != nil {
			return fmt.Errorf("controller replay (%d,%d): %w", it.src, it.dst, err)
		}
		routeNs += time.Since(t0)
		routes++
	}
	if routes > 0 {
		m.set("controller.reroute_ns", float64(routeNs)/float64(routes))
	}
	if muts > 0 {
		m.set("controller.fault_apply_us", float64(mutNs)/float64(muts)/1e3)
	}
	return nil
}

// servingLayers derives the traced half's per-layer numbers from the
// cluster counters around it. Self times come from run totals: a layer's
// span sum minus the sum of the spans below it.
func servingLayers(m metrics, before, after clusterSnap, st phaseStats, routed bool) {
	back := after.backends.sub(before.backends)
	top := back
	if routed {
		top = after.router.sub(before.router)
	}
	routes := float64(st.routesOK)
	m.set("transport.self_us", float64(st.rttNs-top.routeNs)/float64(st.routeReqs)/1e3)
	m.set("http.req_bytes_per_route", float64(after.wr-before.wr)/routes)
	m.set("http.resp_bytes_per_route", float64(after.rd-before.rd)/routes)
	m.set("http.handler_us_per_route", float64(back.routeNs)/routes/1e3)
	if routed {
		m.set("fleet.self_us", float64(top.routeNs-back.routeNs)/float64(top.routeN)/1e3)
		m.set("fleet.backend_calls_per_req", float64(back.routeN)/float64(top.routeN))
		m.set("fleet.mutate_us", float64(top.mutNs)/float64(top.mutN)/1e3)
		m.set("fleet.hedges", float64(after.hedges-before.hedges))
		m.set("fleet.retries", float64(after.retries-before.retries))
	}
	a, b := after.svc, before.svc
	m.set("svc.ssdt_hit_rate", ratio(a.SSDT.Hits-b.SSDT.Hits, a.SSDT.Hits-b.SSDT.Hits+a.SSDT.Misses-b.SSDT.Misses))
	m.set("svc.tsdt_hit_rate", ratio(a.TSDT.Hits-b.TSDT.Hits, a.TSDT.Hits-b.TSDT.Hits+a.TSDT.Misses-b.TSDT.Misses))
	m.set("svc.coalesced_frac", ratio(a.SSDT.Coalesced+a.TSDT.Coalesced-b.SSDT.Coalesced-b.TSDT.Coalesced, a.Requests-b.Requests))
	m.set("svc.invalidations", float64(a.Invalidations-b.Invalidations))
	m.set("svc.admission_shed", float64(a.Admission.Shed-b.Admission.Shed))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
