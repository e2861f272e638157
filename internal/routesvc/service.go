// Package routesvc is the serving layer of the reproduction: it turns the
// in-process network controller (Section 5 of the paper) into a concurrent
// routing service that can sit behind a socket and absorb heavy traffic.
//
// The design follows the paper's cost split between the tag schemes:
//
//   - SSDT tags are state-independent — "the destination address is the
//     tag" (Theorem 3.1) — so the service serves them by construction:
//     core.NewTag(p, dst), with nothing stored, computed or admitted.
//   - TSDT/REROUTE tags (Theorems 3.2–3.4) encode detours around the
//     current blockage map, so every fault or repair report invalidates
//     them. The service stamps each cached tag with the controller's map
//     epoch; a mutation bumps the epoch and every stale entry dies lazily
//     on its next lookup, with no global flush on the mutation path.
//
// A served answer is exactly (src, dst, scheme, tag, epoch, flags): by
// Lemma 2.1 the tag and the source fix the route, so the service never
// walks it.
//
// Concurrency structure: a sharded RWMutex tag cache absorbs the TSDT read
// traffic, a singleflight group collapses thundering herds so each missing
// tag is computed once per epoch, and a drain gate lets the daemon finish
// in-flight requests on shutdown while refusing new ones.
//
// The cost split above also tiers the service under overload: cache hits
// and SSDT requests are the fast path and always flow; fresh TSDT/REROUTE
// computations are the slow path and sit behind a bounded admission queue
// whose threshold a per-round controller adapts from measured
// hit/queue-depth/shed counters (see admission.go). Shed requests fail
// fast with ErrOverload, which HTTP maps to 429 plus Retry-After.
package routesvc

import (
	"errors"
	"fmt"

	"sync"
	"sync/atomic"
	"time"

	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// Scheme selects which of the paper's destination-tag schemes a request
// wants the tag for.
type Scheme uint8

const (
	// SchemeTSDT asks for a two-bit state-based destination tag computed
	// with algorithm REROUTE around the current blockage map.
	SchemeTSDT Scheme = iota
	// SchemeSSDT asks for the state-independent destination tag of
	// Theorem 3.1 (the destination address itself, rendered as a TSDT tag
	// with all state bits zero).
	SchemeSSDT
	numSchemes
)

// String returns the wire name of the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeTSDT:
		return "tsdt"
	case SchemeSSDT:
		return "ssdt"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// ParseScheme parses a wire scheme name. The empty string means TSDT (the
// general scheme); "reroute" is accepted as an alias for it.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "", "tsdt", "reroute":
		return SchemeTSDT, nil
	case "ssdt":
		return SchemeSSDT, nil
	}
	return 0, fmt.Errorf("%w: unknown scheme %q", ErrInvalid, s)
}

// Sentinel errors. HTTP maps ErrInvalid to 400, ErrDraining to 503, and
// core.ErrNoPath (wrapped by route results) to 422.
var (
	ErrInvalid  = errors.New("routesvc: invalid request")
	ErrDraining = errors.New("routesvc: draining")
)

// Config parameterizes a Service.
type Config struct {
	// N is the network size (a power of two >= 2).
	N int
	// Shards is the tag-cache shard count, rounded up to a power of two;
	// 0 means 64.
	Shards int
	// Admission configures the slow-path admission controller (see
	// AdmissionConfig); the zero value enables it with defaults.
	Admission AdmissionConfig
	// SlowCost, when positive, stretches every fresh TSDT/REROUTE
	// computation by that duration (inside its admission ticket). It
	// models the slow-path cost of fabrics far larger than a test host
	// can host, giving overload rehearsals (serve-smoke phase 3, the
	// iadmload -overload contract) a deterministic way to saturate the
	// slow path. Leave zero in production.
	SlowCost time.Duration
	// Prewarm is accepted and ignored: every SSDT request is served by
	// construction (Theorem 3.1), so there is no SSDT table to fill.
	Prewarm bool
	// SweepEvery is the auto-sweep cadence: every SweepEvery-th epoch
	// bump schedules an asynchronous tagCache.sweep, reclaiming stale
	// TSDT entries without an operator call. 0 means 256; negative
	// disables the cadence (the epoch-stamp alias guard still forces a
	// sweep every aliasSweepInterval bumps — see slotLayout).
	SweepEvery int
}

// aliasSweepInterval forces a cache sweep every 2^16 epoch bumps even
// when the configured cadence is disabled: the flat cache stores epoch
// stamps truncated to >= 17 bits (compact layout), so one full sweep per
// 2^16 bumps guarantees a stale stamp can never alias a live epoch.
const aliasSweepInterval = 1 << 16

// defaultSweepEvery backs Config.SweepEvery's zero value.
const defaultSweepEvery = 256

// Request names one tag request of a batch.
type Request struct {
	Src    int
	Dst    int
	Scheme Scheme
}

// Result is the outcome of one tag request.
type Result struct {
	Src, Dst int
	Scheme   Scheme
	// Tag is the routing tag to stamp on the message; it and Src fix the
	// route (Tag.Follow).
	Tag core.Tag
	// Epoch is the blockage-map version the tag is valid against: for
	// TSDT the epoch the tag was computed and validated under (a cache
	// hit reports the entry's stamp, not a possibly newer current epoch);
	// for SSDT the epoch observed at request time, since Theorem 3.1
	// makes the tag valid under every map.
	Epoch uint64
	// Cached reports the tag was served without a tag computation: a
	// TSDT cache hit, or any SSDT request (the tag is the destination).
	// Coalesced reports the request joined another caller's in-flight
	// computation.
	Cached    bool
	Coalesced bool
	// Err is the per-item error of a batch request (nil on success).
	Err error
}

// CacheStats counts one scheme's cache traffic. A hit is a request served
// without a tag computation, so every SSDT request is a hit and SSDT
// Misses stay 0. Coalesced requests are counted as hits and reported
// separately.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
}

// HitRate returns the fraction of requests served without computing a tag,
// or 0 before any request.
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// BatchBucket is one band of the per-batch-size latency histogram: every
// Route call lands in band "1", every RouteBatch call in the band its
// request count falls in, with the whole batch's wall time as one sample.
type BatchBucket struct {
	Batch string  `json:"batch_size"`
	Count uint64  `json:"count"`
	SumNs uint64  `json:"sum_ns"`
	AvgUS float64 `json:"avg_us"`
}

// numBatchBands and the band geometry: powers-of-4-ish splits, so the
// bands separate singleton, small, medium and large batches.
const numBatchBands = 6

var batchBandLabels = [numBatchBands]string{"1", "2-4", "5-16", "17-64", "65-256", "257+"}

func batchBand(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	case n <= 16:
		return 2
	case n <= 64:
		return 3
	case n <= 256:
		return 4
	}
	return 5
}

// Metrics is a point-in-time snapshot of the service.
type Metrics struct {
	N             int    `json:"n"`
	Epoch         uint64 `json:"epoch"`
	Requests      uint64 `json:"requests_total"`
	Unroutable    uint64 `json:"unroutable_total"`
	Invalid       uint64 `json:"invalid_total"`
	Faults        uint64 `json:"faults_total"`
	Repairs       uint64 `json:"repairs_total"`
	Invalidations uint64 `json:"invalidations_total"`
	CacheEntries  int    `json:"cache_entries"`
	// CacheEntriesLive / CacheEntriesStale split CacheEntries by epoch
	// stamp: stale TSDT entries linger until swept or overwritten, and
	// counting them as cache population would skew hit-rate math after
	// fault churn. CacheEntries = live + stale always.
	CacheEntriesLive  int `json:"entries_live"`
	CacheEntriesStale int `json:"entries_stale"`
	// CacheBytes is the TSDT cache's slab footprint; BitsPerRoute is that
	// footprint over the stored entries (SSDT needs no store).
	CacheBytes   uint64  `json:"cache_bytes"`
	BitsPerRoute float64 `json:"bits_per_route"`
	// SweptTotal counts entries reclaimed by all sweeps (automatic and
	// operator-invoked).
	Sweeps      uint64     `json:"sweeps_total"`
	SweptTotal  uint64     `json:"swept_total"`
	SSDT        CacheStats `json:"ssdt"`
	TSDT        CacheStats `json:"tsdt"`
	SSDTHitRate float64    `json:"ssdt_hit_rate"`
	TSDTHitRate float64    `json:"tsdt_hit_rate"`
	// SlicedLanes and SlicedBlocks always read 0: the service walks no
	// paths. They remain, off the wire, for the benchmark that reads them.
	SlicedLanes  uint64           `json:"-"`
	SlicedBlocks uint64           `json:"-"`
	Admission    AdmissionMetrics `json:"admission"`
	BatchLatency []BatchBucket    `json:"batch_latency"`
	Controller   controller.Stats `json:"-"`
	Draining     bool             `json:"draining"`
}

// Service wraps a controller with the serving-layer machinery: the sharded
// epoch-stamped tag cache, request coalescing, batch routing, fault
// ingestion and graceful drain. All methods are safe for concurrent use.
type Service struct {
	ctl      *controller.Controller
	p        topology.Params
	cache    *tagCache
	fl       flightGroup
	adm      *admission
	ownAdm   bool
	slowCost time.Duration

	sweepEvery int
	sweepBusy  atomic.Bool

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	requests      atomic.Uint64
	unroutable    atomic.Uint64
	invalid       atomic.Uint64
	faults        atomic.Uint64
	repairs       atomic.Uint64
	invalidations atomic.Uint64
	hits          [numSchemes]atomic.Uint64
	misses        [numSchemes]atomic.Uint64
	coalesced     [numSchemes]atomic.Uint64
	sweeps        atomic.Uint64
	sweptTotal    atomic.Uint64
	batchLat      [numBatchBands]struct{ count, sumNs atomic.Uint64 }

	// testComputeHook, when set (by tests in this package), runs at the
	// start of every TSDT tag computation (after the admission ticket is
	// taken); it lets tests hold a flight open to observe coalescing and
	// queue occupancy deterministically. testEpochHook runs right after a
	// TSDT request loads its epoch stamp, so tests can race a map
	// mutation into the window between stamp and response.
	testComputeHook func()
	testEpochHook   func()
}

// New builds a Service for a fault-free network of size cfg.N.
func New(cfg Config) (*Service, error) {
	return newService(cfg, newAdmission(cfg.Admission), true)
}

// newService is New with an injected admission gate: a Multi shares one
// per-process gate across every hosted network (the gate protects the
// process's slow-path compute capacity, which is shared), in which case
// the Service does not own it and must not stop it on Drain.
func newService(cfg Config, adm *admission, ownAdm bool) (*Service, error) {
	ctl, err := controller.New(cfg.N)
	if err != nil {
		return nil, err
	}
	s := &Service{
		ctl:        ctl,
		p:          ctl.Params(),
		cache:      newTagCache(cfg.Shards, ctl.Params()),
		adm:        adm,
		ownAdm:     ownAdm,
		slowCost:   cfg.SlowCost,
		sweepEvery: cfg.SweepEvery,
	}
	if s.sweepEvery == 0 {
		s.sweepEvery = defaultSweepEvery
	}
	// The hook runs under the controller's write lock, so it must only
	// bump counters and spawn work — never call back into the controller.
	ctl.OnInvalidate(func(epoch uint64) {
		s.invalidations.Add(1)
		if (s.sweepEvery > 0 && epoch%uint64(s.sweepEvery) == 0) || epoch%aliasSweepInterval == 0 {
			s.scheduleSweep()
		}
	})
	return s, nil
}

// scheduleSweep runs one asynchronous cache sweep, dropping the request
// if a sweep is already running or the service is draining. Drain waits
// for a scheduled sweep through the inflight gate.
func (s *Service) scheduleSweep() {
	if !s.sweepBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.sweepBusy.Store(false)
		if s.begin() != nil {
			return
		}
		defer s.end()
		s.Sweep()
	}()
}

// Params returns the network parameters.
func (s *Service) Params() topology.Params { return s.p }

// Epoch returns the current blockage-map version.
func (s *Service) Epoch() uint64 { return s.ctl.Epoch() }

// begin gates a request on the drain state: Add under the read lock and
// Wait behind the write lock mean Drain can never start waiting while an
// admission is half-done.
func (s *Service) begin() error {
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return ErrDraining
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	return nil
}

func (s *Service) end() { s.inflight.Done() }

// Drain stops admitting requests (they fail with ErrDraining), blocks
// until every in-flight request has finished, and stops the admission
// controller loop (when this Service owns it — a Multi's shared gate is
// stopped once by Multi.Drain). It is idempotent.
func (s *Service) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.inflight.Wait()
	if s.ownAdm {
		s.adm.stop()
	}
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// observeBatch records one whole-batch latency sample in its size band.
func (s *Service) observeBatch(n int, d time.Duration) {
	b := &s.batchLat[batchBand(n)]
	b.count.Add(1)
	b.sumNs.Add(uint64(d.Nanoseconds()))
}

// Route serves one tag request.
func (s *Service) Route(src, dst int, scheme Scheme) (Result, error) {
	if err := s.begin(); err != nil {
		return Result{}, err
	}
	defer s.end()
	t0 := time.Now()
	res, err := s.resolve(src, dst, scheme)
	s.observeBatch(1, time.Since(t0))
	return res, err
}

// RouteBatch serves a batch in one admission: per-item failures land in
// Result.Err and never fail the batch. The only batch-level error is
// ErrDraining.
func (s *Service) RouteBatch(reqs []Request) ([]Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	// A zero-length batch does no routing work; returning before the
	// latency observation keeps it out of the "1" batch band.
	if len(reqs) == 0 {
		return []Result{}, nil
	}
	t0 := time.Now()
	out := make([]Result, len(reqs))
	for i, r := range reqs {
		res, err := s.resolve(r.Src, r.Dst, r.Scheme)
		if err != nil {
			res = Result{Src: r.Src, Dst: r.Dst, Scheme: r.Scheme, Err: err}
		}
		out[i] = res
	}
	s.observeBatch(len(reqs), time.Since(t0))
	return out, nil
}

// resolve serves one tag request: SSDT by construction, TSDT through the
// cache, coalescing and compute machinery.
func (s *Service) resolve(src, dst int, scheme Scheme) (Result, error) {
	s.requests.Add(1)
	if scheme >= numSchemes {
		s.invalid.Add(1)
		return Result{}, fmt.Errorf("%w: unknown scheme %d", ErrInvalid, scheme)
	}
	if !s.p.ValidSwitch(src) || !s.p.ValidSwitch(dst) {
		s.invalid.Add(1)
		return Result{}, fmt.Errorf("%w: pair (%d, %d) outside 0..%d", ErrInvalid, src, dst, s.p.Size()-1)
	}

	if scheme == SchemeSSDT {
		// Theorem 3.1: the destination address is the tag, valid from
		// every source under every blockage map. It is served without a
		// computation, so it counts as a hit; its epoch is the one
		// observed now.
		tag, err := core.NewTag(s.p, dst)
		if err != nil {
			s.invalid.Add(1)
			return Result{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		s.hits[SchemeSSDT].Add(1)
		s.adm.noteHit()
		return Result{Src: src, Dst: dst, Scheme: scheme, Tag: tag, Epoch: s.ctl.Epoch(), Cached: true}, nil
	}

	// Load the epoch BEFORE computing: if a fault lands mid-compute, the
	// entry is stamped with the old epoch and dies unread — the
	// stale-pointing direction is impossible by construction. The stamp is
	// also the reported epoch: the one the tag was validated against,
	// never a newer epoch a concurrent mutation may have produced.
	key := cacheKey{src: int32(src), dst: int32(dst)}
	stamp := s.ctl.Epoch()
	if s.testEpochHook != nil {
		s.testEpochHook()
	}
	res := Result{Src: src, Dst: dst, Scheme: scheme, Epoch: stamp}
	if tag, ok := s.cache.get(key, stamp); ok {
		s.hits[scheme].Add(1)
		s.adm.noteHit()
		res.Tag, res.Cached = tag, true
		return res, nil
	}

	tag, err, shared := s.fl.do(flightKey{key: key, epoch: stamp}, func() (core.Tag, error) {
		// The admission gate guards the slow path: fresh TSDT/REROUTE
		// computations against the current blockage map.
		if !s.adm.acquire() {
			return core.Tag{}, ErrOverload
		}
		defer s.adm.release()
		if s.testComputeHook != nil {
			s.testComputeHook()
		}
		if s.slowCost > 0 {
			time.Sleep(s.slowCost)
		}
		tag, err := s.ctl.RouteTag(src, dst)
		if err == nil {
			s.cache.put(key, tag, stamp)
		}
		return tag, err
	})
	if errors.Is(err, ErrOverload) {
		// A shed flight computed nothing: it is neither a hit nor a
		// miss, and every caller that shared it was refused too.
		s.adm.noteShed()
		return Result{}, err
	}
	if shared {
		s.hits[scheme].Add(1)
		s.coalesced[scheme].Add(1)
		s.adm.noteHit()
	} else {
		s.misses[scheme].Add(1)
	}
	if err != nil {
		if errors.Is(err, core.ErrNoPath) {
			s.unroutable.Add(1)
		} else {
			s.invalid.Add(1)
		}
		return Result{}, err
	}
	res.Tag, res.Coalesced = tag, shared
	return res, nil
}

func (s *Service) validLink(l topology.Link) error {
	if !s.p.ValidStage(l.Stage) || !s.p.ValidSwitch(l.From) ||
		(l.Kind != topology.Minus && l.Kind != topology.Straight && l.Kind != topology.Plus) {
		return fmt.Errorf("%w: link %v", ErrInvalid, l)
	}
	return nil
}

// ApplyFaults ingests a batch of fault reports atomically with respect to
// validation: every link and switch spec is validated before any is
// applied, so a malformed report mid-batch leaves the blockage map
// untouched. It returns the number of links newly blocked (switch reports
// contribute the count of input links they actually blocked).
func (s *Service) ApplyFaults(links []topology.Link, switches []topology.Switch) (int, error) {
	if err := s.begin(); err != nil {
		return 0, err
	}
	defer s.end()
	for _, l := range links {
		if err := s.validLink(l); err != nil {
			return 0, err
		}
	}
	for _, sw := range switches {
		if err := s.ctl.ValidateSwitchFault(sw); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	changed := 0
	for _, l := range links {
		s.faults.Add(1)
		if s.ctl.ReportFault(l) {
			changed++
		}
	}
	for _, sw := range switches {
		s.faults.Add(1)
		blocked, err := s.ctl.ReportSwitchFault(sw)
		if err != nil {
			// Unreachable after validation above, but never swallow it.
			return changed, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		changed += blocked
	}
	return changed, nil
}

// ApplyRepairs is ApplyFaults for repair reports: all specs validated
// before any is applied. It returns the number of links newly unblocked.
func (s *Service) ApplyRepairs(links []topology.Link) (int, error) {
	if err := s.begin(); err != nil {
		return 0, err
	}
	defer s.end()
	for _, l := range links {
		if err := s.validLink(l); err != nil {
			return 0, err
		}
	}
	changed := 0
	for _, l := range links {
		s.repairs.Add(1)
		if s.ctl.ReportRepair(l) {
			changed++
		}
	}
	return changed, nil
}

// Faults returns a snapshot of the blocked links.
func (s *Service) Faults() []topology.Link { return s.ctl.Faults() }

// RetryAfter returns the overload backoff hint, in seconds, that the HTTP
// layer attaches to 429 responses: long enough for the admission
// controller to run a couple of rounds and adapt its threshold.
func (s *Service) RetryAfter() int { return s.adm.retryAfter() }

// Sweep reclaims stale TSDT cache entries (see tagCache.sweep); it returns
// how many entries it removed. The service also sweeps automatically every
// Config.SweepEvery epoch bumps, so serving neither requires an operator
// call for memory nor (via the alias guard) for stamp-truncation safety.
func (s *Service) Sweep() int {
	removed := s.cache.sweep(s.ctl.Epoch())
	s.sweeps.Add(1)
	s.sweptTotal.Add(uint64(removed))
	return removed
}

// Metrics snapshots the service counters. The cache population split and
// the slab footprint come from one consistent per-shard pass
// (tagCache.snapshot): counting entries and summing bytes in two separate
// lock passes let a concurrent sweep rebuild shards in between, so a
// scrape could pair a pre-sweep entry count with a post-sweep footprint
// and report an impossible bits-per-route figure.
func (s *Service) Metrics() Metrics {
	live, stale, cacheBytes := s.cache.snapshot(s.ctl.Epoch())
	m := Metrics{
		N:                 s.p.Size(),
		Epoch:             s.ctl.Epoch(),
		Requests:          s.requests.Load(),
		Unroutable:        s.unroutable.Load(),
		Invalid:           s.invalid.Load(),
		Faults:            s.faults.Load(),
		Repairs:           s.repairs.Load(),
		Invalidations:     s.invalidations.Load(),
		CacheEntries:      live + stale,
		CacheEntriesLive:  live,
		CacheEntriesStale: stale,
		CacheBytes:        cacheBytes,
		Sweeps:            s.sweeps.Load(),
		SweptTotal:        s.sweptTotal.Load(),
		SSDT: CacheStats{
			Hits:      s.hits[SchemeSSDT].Load(),
			Misses:    s.misses[SchemeSSDT].Load(),
			Coalesced: s.coalesced[SchemeSSDT].Load(),
		},
		TSDT: CacheStats{
			Hits:      s.hits[SchemeTSDT].Load(),
			Misses:    s.misses[SchemeTSDT].Load(),
			Coalesced: s.coalesced[SchemeTSDT].Load(),
		},
		Admission:    s.adm.metrics(),
		BatchLatency: make([]BatchBucket, numBatchBands),
		Controller:   s.ctl.Stats(),
		Draining:     s.Draining(),
	}
	for i := range s.batchLat {
		m.BatchLatency[i] = BatchBucket{Batch: batchBandLabels[i], Count: s.batchLat[i].count.Load(), SumNs: s.batchLat[i].sumNs.Load()}
	}
	finalizeMetrics(&m)
	return m
}
