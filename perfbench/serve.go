package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"iadm/internal/fleet"
	"iadm/internal/routesvc"
)

// The serving workloads run the real stack in-process over loopback TCP:
// net/http servers on 127.0.0.1 host routesvc.NewMultiHandler backends
// and, for routed-churn, a fleet.Router in front of them. A traced run
// wraps each server's handler in a span recorder and counts the client's
// wire bytes, both switched on for its traced half only; an untraced run
// installs neither.

// spanSum accumulates the durations of one class of spans.
type spanSum struct{ n, ns atomic.Int64 }

func (s *spanSum) add(d time.Duration) { s.n.Add(1); s.ns.Add(int64(d)) }

// spans records one server's handler spans, split into route requests
// and fault/repair mutations, while on is set.
type spans struct {
	on            *atomic.Bool
	route, mutate spanSum
}

func (s *spans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		switch r.URL.Path {
		case "/route", "/route/batch":
			s.route.add(d)
		case "/fault", "/repair":
			s.mutate.add(d)
		}
	})
}

type spanSnap struct{ routeN, routeNs, mutN, mutNs int64 }

func (s *spans) snap() spanSnap {
	return spanSnap{s.route.n.Load(), s.route.ns.Load(), s.mutate.n.Load(), s.mutate.ns.Load()}
}

func (a spanSnap) sub(b spanSnap) spanSnap {
	return spanSnap{a.routeN - b.routeN, a.routeNs - b.routeNs, a.mutN - b.mutN, a.mutNs - b.mutNs}
}

func (a spanSnap) add(b spanSnap) spanSnap {
	return spanSnap{a.routeN + b.routeN, a.routeNs + b.routeNs, a.mutN + b.mutN, a.mutNs + b.mutNs}
}

// server is one in-process HTTP server and the goroutine serving it.
type server struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// backendNode is one routesvc backend process stand-in.
type backendNode struct {
	multi *routesvc.Multi
	srv   *server
	spans *spans
}

// cluster is a booted serving stack: the backends and, when routed, the
// fleet router clients talk to. In a traced run, tracing switches the
// span recorders and the client's byte counters on.
type cluster struct {
	nodes       []*backendNode
	router      *fleet.Router
	routerSrv   *server
	routerSpans *spans
	front       string
	tracing     atomic.Bool
}

// bootCluster starts backends prewarmed N=1024 backends (default
// admission) and, when nets is non-empty, a fleet router with 2 replicas
// per partition in front of them; every partition is created and
// prewarmed on its replicas before bootCluster returns.
func bootCluster(backends int, nets []string, traced bool) (*cluster, error) {
	c := &cluster{}
	var bases []string
	for i := 0; i < backends; i++ {
		m := routesvc.NewMulti(routesvc.Config{N: netSize, Prewarm: true}, 8)
		node := &backendNode{multi: m}
		var h http.Handler = routesvc.NewMultiHandler(m)
		if traced {
			node.spans = &spans{on: &c.tracing}
			h = node.spans.wrap(h)
		}
		srv, err := serve(h)
		if err != nil {
			m.Drain()
			c.close()
			return nil, err
		}
		node.srv = srv
		c.nodes = append(c.nodes, node)
		bases = append(bases, srv.base)
	}
	if len(nets) == 0 {
		if _, err := c.nodes[0].multi.Get(""); err != nil {
			c.close()
			return nil, err
		}
		c.front = c.nodes[0].srv.base
		return c, nil
	}
	rt, err := fleet.New(fleet.Config{Backends: bases, Replicas: 2, RetryFraction: 0.1})
	if err != nil {
		c.close()
		return nil, err
	}
	if err := rt.Probe(); err != nil {
		c.close()
		return nil, err
	}
	for _, net := range nets {
		for _, b := range rt.Ring().ReplicaSet(net) {
			if _, err := c.nodes[b].multi.Get(net); err != nil {
				c.close()
				return nil, err
			}
		}
	}
	c.router = rt
	var h http.Handler = rt
	if traced {
		c.routerSpans = &spans{on: &c.tracing}
		h = c.routerSpans.wrap(h)
	}
	if c.routerSrv, err = serve(h); err != nil {
		c.close()
		return nil, err
	}
	c.front = c.routerSrv.base
	return c, nil
}

// close stops the router first, then every backend, and waits for all of
// their goroutines.
func (c *cluster) close() {
	if c.routerSrv != nil {
		c.routerSrv.close()
		c.router.Drain()
	}
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.close()
		}
		n.multi.Drain()
	}
}

// clusterSnap is the cluster's counters at one instant of a traced run.
type clusterSnap struct {
	router, backends spanSnap
	rd, wr           int64
	svc              routesvc.Metrics
	hedges, retries  uint64
}

func (c *cluster) snapshot(w *wire) clusterSnap {
	var s clusterSnap
	for _, n := range c.nodes {
		s.backends = s.backends.add(n.spans.snap())
		nm, _ := n.multi.Metrics()
		routesvc.MergeMetrics(&s.svc, nm)
	}
	if c.router != nil {
		s.router = c.routerSpans.snap()
		fm := c.router.Metrics().Fleet
		s.hedges, s.retries = fm.Hedges, fm.Retries
	}
	s.rd, s.wr = w.rd.Load(), w.wr.Load()
	return s
}

// wire counts the bytes a client moves over its connections while on is
// set.
type wire struct {
	on     *atomic.Bool
	rd, wr atomic.Int64
}

type countingConn struct {
	net.Conn
	w *wire
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.w.on.Load() {
		c.w.rd.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.w.on.Load() {
		c.w.wr.Add(int64(n))
	}
	return n, err
}

// newHTTPClient returns the load generator's HTTP client; w, when set,
// counts its wire bytes.
func newHTTPClient(clients int, w *wire) *http.Client {
	d := &net.Dialer{}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil || w == nil {
				return conn, err
			}
			return countingConn{conn, w}, nil
		},
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}
