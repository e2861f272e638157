package routesvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/stats"
	"iadm/internal/topology"
)

// Handler is the HTTP front of a Service: a stdlib net/http mux serving
//
//	GET|POST /route        one tag request (?src=&dst=&scheme= or JSON body)
//	POST     /route/batch  many tag requests in one round trip
//	POST     /fault        link/switch fault reports
//	POST     /repair       link repair reports
//	GET      /healthz      liveness + drain state
//	GET      /metrics      JSON metrics (cache hit rates, epoch, latency)
//
// Per-endpoint latency is recorded in a stats.Stream (microsecond
// buckets) and reported by /metrics alongside the Service counters.
//
// Overload: slow-path requests shed by admission control answer 429 with
// a Retry-After header; batch items shed inside a 200 response carry
// "code":"overload". 429s are counted separately from 5xx — a shed is the
// service protecting itself, not failing.
// Multi-network mode: a Handler built with NewMultiHandler serves many
// named networks from one process. Requests select theirs with a "net"
// field (JSON) or ?net= (query); the empty name is DefaultNet. A Handler
// built with NewHandler serves exactly one network and ignores "net",
// so single-network deployments and their clients are unchanged.
type Handler struct {
	svc   *Service // single-network mode (NewHandler)
	multi *Multi   // multi-network mode (NewMultiHandler)
	mux   *http.ServeMux
	start time.Time

	eps map[string]*epStream

	http5xx atomic.Uint64
	http429 atomic.Uint64
}

// epStream is one endpoint's latency recorder. Each endpoint owns its
// lock, so hot /route traffic never serializes against /metrics or
// /route/batch recording.
type epStream struct {
	mu sync.Mutex
	st stats.Stream
}

// Latency histogram geometry: 5 µs buckets spanning 20 ms; slower
// responses land in the overflow bin and report as Max.
const (
	latBucketUS = 5
	latBuckets  = 4096
)

// NewHandler wraps one service in its HTTP API (single-network mode).
func NewHandler(svc *Service) *Handler {
	h := newHandler()
	h.svc = svc
	return h
}

// NewMultiHandler wraps a multi-network host in the same HTTP API; the
// "net" request field selects the network.
func NewMultiHandler(m *Multi) *Handler {
	h := newHandler()
	h.multi = m
	return h
}

func newHandler() *Handler {
	h := &Handler{
		mux:   http.NewServeMux(),
		start: time.Now(),
		eps:   make(map[string]*epStream),
	}
	h.handle("/route", h.routeOne)
	h.handle("/route/batch", h.routeBatch)
	h.handle("/fault", h.fault)
	h.handle("/repair", h.repair)
	h.handle("/healthz", h.healthz)
	h.handle("/metrics", h.metrics)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// statusWriter captures the response code so the wrapper can count 5xx.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *Handler) handle(path string, fn func(http.ResponseWriter, *http.Request)) {
	es := &epStream{st: stats.NewStream(latBucketUS, latBuckets)}
	h.eps[path] = es
	h.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		switch {
		case sw.code >= 500 && sw.code != http.StatusServiceUnavailable:
			// Drain refusals are intentional; anything else 5xx is a bug.
			h.http5xx.Add(1)
		case sw.code == http.StatusTooManyRequests:
			h.http429.Add(1)
		}
		us := float64(time.Since(t0).Microseconds())
		es.mu.Lock()
		es.st.Add(us)
		es.mu.Unlock()
	})
}

// WriteJSON writes v as a JSON body through encoding/json, for the
// endpoints off the route path (/metrics, /healthz, mutation acks).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// errJSON is the wire form of an error body (see WriteError).
type errJSON struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// errStatus maps a service error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNoPath):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// errCode classifies a service error for the wire, so batch clients can
// tell a shed item ("overload": retry later) from an unroutable pair
// ("unroutable": retrying is pointless) without string-matching messages.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrOverload):
		return "overload"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrInvalid):
		return "invalid"
	case errors.Is(err, core.ErrNoPath):
		return "unroutable"
	}
	return ""
}

// service resolves the network a request addressed. Single-network
// handlers ignore the name; multi-network handlers create the net
// lazily (or refuse it: draining, or over the -max-nets cap).
func (h *Handler) service(net string) (*Service, error) {
	if h.multi != nil {
		return h.multi.Get(net)
	}
	return h.svc, nil
}

func (h *Handler) retryAfter() int {
	if h.multi != nil {
		return h.multi.RetryAfter()
	}
	return h.svc.RetryAfter()
}

func (h *Handler) writeErr(w http.ResponseWriter, err error) {
	code, retryAfter := errStatus(err), 0
	if code == http.StatusTooManyRequests {
		retryAfter = h.retryAfter()
	}
	WriteError(w, code, err.Error(), errCode(err), retryAfter)
}

// RouteJSON is the wire form of one route request/response. Net selects
// the target network on multi-network hosts (empty = DefaultNet) and is
// echoed on responses. A response carries the tag but not the path: the
// tag and Src fix it (core.ParseTag, then Tag.Follow).
type RouteJSON struct {
	Net    string `json:"net,omitempty"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Scheme string `json:"scheme"`
	// Response fields.
	Tag       string `json:"tag,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	Code      string `json:"code,omitempty"`
}

// ReadRouteRequest reads a /route request as sent: GET query parameters
// (net, src, dst, scheme) or a POST JSON body.
func ReadRouteRequest(r *http.Request) (RouteJSON, error) {
	var in RouteJSON
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		in.Net, in.Scheme = q.Get("net"), q.Get("scheme")
		var err error
		if in.Src, err = strconv.Atoi(q.Get("src")); err != nil {
			return in, fmt.Errorf("%w: bad src %q", ErrInvalid, q.Get("src"))
		}
		if in.Dst, err = strconv.Atoi(q.Get("dst")); err != nil {
			return in, fmt.Errorf("%w: bad dst %q", ErrInvalid, q.Get("dst"))
		}
	case http.MethodPost:
		if err := ReadRoute(r.Body, &in); err != nil {
			return in, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err)
		}
	default:
		return in, fmt.Errorf("%w: method %s", ErrInvalid, r.Method)
	}
	return in, nil
}

func (h *Handler) routeOne(w http.ResponseWriter, r *http.Request) {
	in, err := ReadRouteRequest(r)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	scheme, err := ParseScheme(in.Scheme)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	svc, err := h.service(in.Net)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	res, err := svc.Route(in.Src, in.Dst, scheme)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	write(w, http.StatusOK, func(b []byte) []byte { return append(appendResult(b, in.Net, &res), '\n') })
}

// BatchJSON is the wire form of a /route/batch exchange.
type BatchJSON struct {
	Requests []RouteJSON `json:"requests"`
	// Response fields.
	Responses []RouteJSON `json:"responses,omitempty"`
	Epoch     uint64      `json:"epoch,omitempty"`
}

// batchScratch is the working set of one /route/batch exchange, pooled so
// a steady stream of batches reuses its buffer and slices.
type batchScratch struct {
	body BatchJSON
	reqs []Request
	buf  []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (h *Handler) routeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.writeErr(w, fmt.Errorf("%w: method %s", ErrInvalid, r.Method))
		return
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	var err error
	if sc.buf, err = readBody(r.Body, sc.buf); err == nil {
		sc.body = BatchJSON{Requests: sc.body.Requests[:0]}
		err = decodeBatch(sc.buf, &sc.body)
	}
	if err != nil {
		h.writeErr(w, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err))
		return
	}
	items := sc.body.Requests
	reqs := sc.reqs[:0]
	mixed := false
	for i := range items {
		sch, err := ParseScheme(items[i].Scheme)
		if err != nil {
			h.writeErr(w, fmt.Errorf("%w (request %d)", err, i))
			return
		}
		reqs = append(reqs, Request{Src: items[i].Src, Dst: items[i].Dst, Scheme: sch})
		mixed = mixed || netName(items[i].Net) != netName(items[0].Net)
	}
	sc.reqs = reqs
	// A single-network batch (the overwhelmingly common case, and every
	// single-network handler) keeps whole-batch error semantics; items of
	// a mixed batch fail per-item so one draining network cannot poison
	// the others' results.
	var results []Result
	var epoch uint64
	if h.multi == nil || !mixed {
		var net string
		if len(items) > 0 {
			net = items[0].Net
		}
		svc, err := h.service(net)
		if err == nil {
			results, err = svc.RouteBatch(reqs)
		}
		if err != nil {
			h.writeErr(w, err)
			return
		}
		epoch = svc.Epoch()
	} else {
		results, epoch = h.routeMixed(items, reqs)
	}
	write(w, http.StatusOK, func(b []byte) []byte {
		b = appendItems(append(b, `{"responses":[`...), len(results), func(b []byte, i int) []byte {
			return appendResult(b, items[i].Net, &results[i])
		})
		return appendResponsesEnd(b, epoch)
	})
}

func netName(n string) string {
	if n == "" {
		return DefaultNet
	}
	return n
}

// routeMixed serves a batch spanning several networks: items are grouped
// by network, preserving input order inside each group, and a group whose
// network fails answers per-item errors. It returns the results in input
// order and the highest epoch any network reported.
func (h *Handler) routeMixed(items []RouteJSON, reqs []Request) ([]Result, uint64) {
	var order []string
	groups := make(map[string][]int)
	for i := range items {
		n := netName(items[i].Net)
		if _, ok := groups[n]; !ok {
			order = append(order, n)
		}
		groups[n] = append(groups[n], i)
	}
	out := make([]Result, len(reqs))
	var epoch uint64
	for _, n := range order {
		idx := groups[n]
		sub := make([]Request, len(idx))
		for k, i := range idx {
			sub[k] = reqs[i]
		}
		svc, err := h.service(n)
		var results []Result
		if err == nil {
			results, err = svc.RouteBatch(sub)
		}
		for k, i := range idx {
			if err != nil {
				out[i] = Result{Src: reqs[i].Src, Dst: reqs[i].Dst, Scheme: reqs[i].Scheme, Err: err}
			} else {
				out[i] = results[k]
			}
		}
		if err == nil {
			epoch = max(epoch, svc.Epoch())
		}
	}
	return out, epoch
}

// MutateJSON is the wire form of /fault and /repair exchanges. Specs use
// the iadmsim notation: links "stage:from:kind" (kind -, 0, +), switches
// "stage:index". Net selects the network whose blockage map mutates;
// only that network's epoch bumps, so the other partitions hosted by a
// multi-network backend keep their caches.
type MutateJSON struct {
	Net      string   `json:"net,omitempty"`
	Links    []string `json:"links,omitempty"`
	Switches []string `json:"switches,omitempty"`
	// Response fields.
	Changed int    `json:"changed"`
	Epoch   uint64 `json:"epoch"`
	Blocked int    `json:"blocked"`
}

func (h *Handler) fault(w http.ResponseWriter, r *http.Request)  { h.mutate(w, r, true) }
func (h *Handler) repair(w http.ResponseWriter, r *http.Request) { h.mutate(w, r, false) }

func (h *Handler) mutate(w http.ResponseWriter, r *http.Request, isFault bool) {
	if r.Method != http.MethodPost {
		h.writeErr(w, fmt.Errorf("%w: method %s", ErrInvalid, r.Method))
		return
	}
	var body MutateJSON
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		h.writeErr(w, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err))
		return
	}
	if len(body.Links)+len(body.Switches) == 0 {
		h.writeErr(w, fmt.Errorf("%w: no links or switches given", ErrInvalid))
		return
	}
	if !isFault && len(body.Switches) > 0 {
		h.writeErr(w, fmt.Errorf("%w: switch repairs are not expressible (repair the input links individually)", ErrInvalid))
		return
	}
	svc, err := h.service(body.Net)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	// Parse every spec before applying any, so a malformed entry midway
	// through the list cannot leave the blockage map half-mutated.
	p := svc.Params()
	links := make([]topology.Link, len(body.Links))
	for i, spec := range body.Links {
		l, err := topology.ParseLink(p, spec)
		if err != nil {
			h.writeErr(w, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
		links[i] = l
	}
	switches := make([]topology.Switch, len(body.Switches))
	for i, spec := range body.Switches {
		sw, err := topology.ParseSwitch(p, spec)
		if err != nil {
			h.writeErr(w, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
		switches[i] = sw
	}
	var changed int
	if isFault {
		changed, err = svc.ApplyFaults(links, switches)
	} else {
		changed, err = svc.ApplyRepairs(links)
	}
	if err != nil {
		h.writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, MutateJSON{
		Net:     body.Net,
		Changed: changed,
		Epoch:   svc.Epoch(),
		Blocked: len(svc.Faults()),
	})
}

// HealthJSON is the wire form of /healthz. Nets counts the networks a
// multi-network host has materialized (0 on single-network handlers,
// whose one network is implicit).
type HealthJSON struct {
	Status        string  `json:"status"`
	N             int     `json:"n"`
	Epoch         uint64  `json:"epoch"`
	Nets          int     `json:"nets,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	out := HealthJSON{Status: "ok", UptimeSeconds: time.Since(h.start).Seconds()}
	var draining bool
	if h.multi != nil {
		out.N = h.multi.N()
		out.Nets = len(h.multi.Nets())
		draining = h.multi.Draining()
	} else {
		out.N = h.svc.Params().Size()
		out.Epoch = h.svc.Epoch()
		draining = h.svc.Draining()
	}
	if draining {
		out.Status = "draining"
		WriteJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	WriteJSON(w, http.StatusOK, out)
}

// EndpointJSON summarizes one endpoint's latency distribution.
type EndpointJSON struct {
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// MetricsJSON is the wire form of /metrics. Service carries the cache and
// request counters (see Metrics); Controller carries the inner
// controller's REROUTE cache snapshot.
type MetricsJSON struct {
	Service    Metrics                 `json:"service"`
	Controller controller.Stats        `json:"controller"`
	Endpoints  map[string]EndpointJSON `json:"endpoints"`
	Networks   []NetMetrics            `json:"networks,omitempty"`
	HTTP5xx    uint64                  `json:"http_5xx"`
	HTTP429    uint64                  `json:"http_429"`
	UptimeSec  float64                 `json:"uptime_seconds"`
}

// NetMetrics is one network's line in a multi-network /metrics document
// (Service there carries the merged totals). Replicas is filled by fleet
// aggregation — how many backends' scrapes contributed to this line.
type NetMetrics struct {
	Net          string `json:"net"`
	Requests     uint64 `json:"requests_total"`
	Epoch        uint64 `json:"epoch"`
	CacheEntries int    `json:"cache_entries"`
	Replicas     int    `json:"replicas,omitempty"`
}

// Metrics builds the /metrics payload (exported so load generators can
// decode it with the same type).
func (h *Handler) Metrics() MetricsJSON {
	var m Metrics
	var nets []NetMetrics
	if h.multi != nil {
		m, nets = h.multi.Metrics()
	} else {
		m = h.svc.Metrics()
	}
	out := MetricsJSON{
		Service:    m,
		Networks:   nets,
		Controller: m.Controller,
		Endpoints:  make(map[string]EndpointJSON, len(h.eps)),
		HTTP5xx:    h.http5xx.Load(),
		HTTP429:    h.http429.Load(),
		UptimeSec:  time.Since(h.start).Seconds(),
	}
	for path, es := range h.eps {
		es.mu.Lock()
		out.Endpoints[path] = EndpointJSON{
			Count:  es.st.N(),
			MeanUS: es.st.Mean(),
			P50US:  es.st.Percentile(50),
			P90US:  es.st.Percentile(90),
			P99US:  es.st.Percentile(99),
			MaxUS:  es.st.Max(),
		}
		es.mu.Unlock()
	}
	return out
}

func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, h.Metrics())
}
