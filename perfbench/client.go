package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"sort"
	"sync"
	"time"

	"iadm/internal/core"
	"iadm/internal/fleet"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// The load generator: closed-loop clients, what they record for the
// oracle, and the per-partition ledgers of acked mutations.

// phaseStats is what one client measured during one phase.
type phaseStats struct {
	win       *windows  // route request latencies and routes served
	mutUS     []float64 // per acked fault/repair
	routeReqs int       // route requests sent
	rttNs     int64     // their summed round trips
	routesOK  int       // routes served without error
	attempted int       // routes + mutations attempted
	failed    int       // of those, failed
	bodies    []bodyRef // batch-direct bodies received, until settled
}

func (p *phaseStats) merge(o *phaseStats) {
	p.win.merge(o.win)
	p.mutUS = append(p.mutUS, o.mutUS...)
	p.routeReqs += o.routeReqs
	p.rttNs += o.rttNs
	p.routesOK += o.routesOK
	p.attempted += o.attempted
	p.failed += o.failed
	p.bodies = append(p.bodies, o.bodies...)
}

// served is one answered route: the stream position it answered and the
// tag and epoch it carried.
type served struct {
	pos, item int32 // batch and item (batch-direct) or request (routed-churn)
	packed    uint64
}

// packServed packs a tag and its epoch into one word: N=1024 tags take 20
// bits, epochs bits 32..62.
func packServed(t core.Tag, epoch uint64) (uint64, error) {
	if epoch >= 1<<31 {
		return 0, fmt.Errorf("epoch %d out of range", epoch)
	}
	return uint64(t.Destination()) | t.StateBits()<<uint(t.Stages()) | epoch<<32, nil
}

// answers keeps every distinct answer a client received, in memory
// bounded by its stream rather than by the run length: the first answer
// per stream position and item, plus each later answer that differs.
type answers struct {
	first [][]uint64 // packed | present, 0 while unanswered
	extra []served
}

const present = 1 << 63

func newAnswers(sizes func(pos int) int, positions int) *answers {
	a := &answers{first: make([][]uint64, positions)}
	for i := range a.first {
		a.first[i] = make([]uint64, sizes(i))
	}
	return a
}

func (a *answers) add(pos, item int, packed uint64) {
	f := &a.first[pos][item]
	switch *f {
	case 0:
		*f = packed | present
	case packed | present:
	default:
		a.extra = append(a.extra, served{int32(pos), int32(item), packed})
	}
}

// each calls fn on every distinct answer.
func (a *answers) each(fn func(s served)) {
	for pos, items := range a.first {
		for item, v := range items {
			if v != 0 {
				fn(served{int32(pos), int32(item), v &^ present})
			}
		}
	}
	for _, s := range a.extra {
		fn(s)
	}
}

func unpackServed(p topology.Params, packed uint64) (core.Tag, uint64) {
	n := uint(p.Stages())
	mask := uint64(1)<<n - 1
	return core.TagFromState(p, int(packed&mask), packed>>n&mask), packed >> 32
}

// itemJSON is the slice of a route response the client reads: the path
// is left undecoded, since the oracle derives it from the tag.
type itemJSON struct {
	Src, Dst           int
	Scheme, Tag, Error string
	Epoch              uint64
}

// client is one closed-loop load generator: it sends its next request
// only once the previous one has been answered.
type client struct {
	hc      *http.Client
	front   string
	p       topology.Params
	pos     int
	buf     bytes.Buffer
	answers *answers
	bodies  *bodyLog // batch-direct only
	errs    []string // first few failure descriptions
}

func (c *client) fail(st *phaseStats, n int, format string, args ...any) {
	st.failed += n
	if len(c.errs) < 4 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// do sends one request and reads the whole response into c.buf, timing
// the round trip up to the last body byte. The body is valid until the
// next call.
func (c *client) do(req *http.Request) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(t0), err
}

// bodyLog identifies the distinct batch response bodies a client received
// per stream position, so decoding and checking them waits until the
// timed phase is over: the load generator only reads and hashes while it
// measures. A body is identified by its length and two 64-bit hashes;
// its bytes are kept only until it has been checked.
type bodyLog struct {
	seeds [2]maphash.Seed
	seen  [][]distinctBody // [position]
}

type bodyKey struct {
	n      int
	h1, h2 uint64
}

type distinctBody struct {
	key     bodyKey
	body    []byte // until checked
	checked bool
	ok      int    // items answered without error
	err     string // first per-item failure
}

// bodyRef names one received body: its position, its index among the
// position's distinct bodies and the window it arrived in.
type bodyRef struct{ pos, idx, win int32 }

func newBodyLog(positions int) *bodyLog {
	return &bodyLog{seeds: [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}, seen: make([][]distinctBody, positions)}
}

func (l *bodyLog) intern(pos int, body []byte) bodyRef {
	key := bodyKey{len(body), maphash.Bytes(l.seeds[0], body), maphash.Bytes(l.seeds[1], body)}
	for i, d := range l.seen[pos] {
		if d.key == key {
			return bodyRef{pos: int32(pos), idx: int32(i)}
		}
	}
	l.seen[pos] = append(l.seen[pos], distinctBody{key: key, body: bytes.Clone(body)})
	return bodyRef{pos: int32(pos), idx: int32(len(l.seen[pos]) - 1)}
}

// barrier runs the batch-direct clients in rounds: in every round each
// client sends the batch at the same stream position, so concurrent
// batches have the same size, and the next round starts once all have
// been answered. Without it a batch's latency would depend on which size
// the other clients happen to be sending, and its percentiles would jump
// between those mixtures from run to run.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	gen      int
	more     bool
	deadline time.Time
}

func newBarrier(n int, deadline time.Time) *barrier {
	b := &barrier{n: n, deadline: deadline}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every client has arrived and reports whether another
// round starts; the last to arrive decides, so all clients agree.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.more = time.Now().Before(b.deadline)
		b.cond.Broadcast()
		return b.more
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.more
}

// runBatch drives batch-direct in rounds until the barrier stops them;
// settle tallies what it received.
func (c *client) runBatch(bodies [][]byte, sizes func(b int) int, bar *barrier, st *phaseStats) {
	for bar.wait() {
		b := c.pos % len(bodies)
		c.pos++
		n := sizes(b)
		st.attempted += n
		req, err := http.NewRequest(http.MethodPost, c.front+"/route/batch", bytes.NewReader(bodies[b]))
		if err != nil {
			c.fail(st, n, "batch %d: %v", b, err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		code, body, d, err := c.do(req)
		w := st.win.now()
		st.routeReqs++
		st.rttNs += int64(d)
		st.win.lat[w] = append(st.win.lat[w], float64(d)/1e3)
		if err != nil || code != http.StatusOK {
			c.fail(st, n, "batch %d: status %d: %v %.80s", b, code, err, body)
			continue
		}
		ref := c.bodies.intern(b, body)
		ref.win = int32(w)
		st.bodies = append(st.bodies, ref)
	}
}

// settle decodes and checks every distinct body of the phase once, then
// counts each received body's routes as served or failed.
func (c *client) settle(in [][]item, st *phaseStats) {
	for _, r := range st.bodies {
		d := &c.bodies.seen[r.pos][r.idx]
		if !d.checked {
			c.checkBatch(int(r.pos), in[r.pos], d)
		}
		st.routesOK += d.ok
		st.win.work[r.win] += float64(d.ok)
		if bad := len(in[r.pos]) - d.ok; bad > 0 {
			c.fail(st, bad, "%s", d.err)
		}
	}
	st.bodies = nil
}

func (c *client) checkBatch(pos int, items []item, d *distinctBody) {
	body := d.body
	d.body, d.checked = nil, true
	var resp struct{ Responses []itemJSON }
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Responses) != len(items) {
		d.err = fmt.Sprintf("batch %d: bad body (%v, %d items)", pos, err, len(resp.Responses))
		return
	}
	for i, r := range resp.Responses {
		packed, err := c.check(items[i], r)
		if err != nil {
			if d.err == "" {
				d.err = fmt.Sprintf("batch %d item %d: %v", pos, i, err)
			}
			continue
		}
		d.ok++
		c.answers.add(pos, i, packed)
	}
}

// check validates the wire shape of one answered item and packs it for
// the oracle.
func (c *client) check(want item, r itemJSON) (uint64, error) {
	if r.Error != "" {
		return 0, errors.New(r.Error)
	}
	if r.Src != want.src || r.Dst != want.dst || r.Scheme != want.scheme.String() {
		return 0, fmt.Errorf("echo (%d,%d,%s) for request (%d,%d,%s)", r.Src, r.Dst, r.Scheme, want.src, want.dst, want.scheme)
	}
	tag, err := core.ParseTag(c.p.Stages(), r.Tag)
	if err != nil {
		return 0, err
	}
	return packServed(tag, r.Epoch)
}

// ledger is the authoritative blockage history of one partition, built
// from acked mutations: sets[e] is the blocked-link set at epoch e.
// Mutations of one partition are serialized through mu, so every replica
// applies them in one order and must ack the same epoch.
type ledger struct {
	mu      sync.Mutex
	blocked map[topology.Link]bool // the links down now
	sets    [][]topology.Link
	// diverged counts mutations whose replicas acked different epochs,
	// or an epoch other than the next one.
	diverged int
}

func newLedger() *ledger {
	return &ledger{blocked: make(map[topology.Link]bool), sets: [][]topology.Link{nil}}
}

// runChurn drives routed-churn until the deadline.
func (c *client) runChurn(reqs []single, ops []churnOp, ledgers []*ledger, deadline time.Time, st *phaseStats) {
	for time.Now().Before(deadline) {
		i := c.pos % len(reqs)
		c.pos++
		s := reqs[i]
		if s.op >= 0 {
			c.toggle(ops[s.op], ledgers[ops[s.op].net], st)
		}
		st.attempted++
		req, err := http.NewRequest(http.MethodGet, c.front+s.url, nil)
		if err != nil {
			c.fail(st, 1, "request %d: %v", i, err)
			continue
		}
		code, body, d, err := c.do(req)
		w := st.win.now()
		st.routeReqs++
		st.rttNs += int64(d)
		st.win.lat[w] = append(st.win.lat[w], float64(d)/1e3)
		if err != nil || code != http.StatusOK {
			c.fail(st, 1, "request %d: status %d: %v %.80s", i, code, err, body)
			continue
		}
		var r itemJSON
		if err := json.Unmarshal(body, &r); err != nil {
			c.fail(st, 1, "request %d: %v", i, err)
			continue
		}
		packed, err := c.check(s.item, r)
		if err != nil {
			c.fail(st, 1, "request %d: %v", i, err)
			continue
		}
		st.routesOK++
		st.win.work[w]++
		c.answers.add(i, 0, packed)
	}
}

// toggle faults or repairs op.link through the router's fan-out, and
// records the acked epoch in the ledger.
func (c *client) toggle(op churnOp, lg *ledger, st *phaseStats) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	st.attempted++
	path := "/fault"
	if op.repair {
		path = "/repair"
	}
	body, err := json.Marshal(routesvc.MutateJSON{Net: fmt.Sprintf("p%d", op.net), Links: []string{op.link.Spec()}})
	if err != nil {
		c.fail(st, 1, "%s: %v", path, err)
		return
	}
	req, err := http.NewRequest(http.MethodPost, c.front+path, bytes.NewReader(body))
	if err != nil {
		c.fail(st, 1, "%s: %v", path, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	code, resp, d, err := c.do(req)
	if err != nil || code != http.StatusOK {
		c.fail(st, 1, "%s p%d %s: status %d: %v %.80s", path, op.net, op.link.Spec(), code, err, resp)
		return
	}
	var ack fleet.FleetMutateJSON
	if err := json.Unmarshal(resp, &ack); err != nil {
		c.fail(st, 1, "%s: %v", path, err)
		return
	}
	st.mutUS = append(st.mutUS, float64(d)/1e3)
	want := uint64(len(lg.sets))
	for _, a := range ack.Acks {
		if a.Epoch != want {
			lg.diverged++
			if len(c.errs) < 4 {
				c.errs = append(c.errs, fmt.Sprintf("p%d: replica %s acked epoch %d, want %d", op.net, a.Backend, a.Epoch, want))
			}
		}
	}
	if op.repair {
		delete(lg.blocked, op.link)
	} else {
		lg.blocked[op.link] = true
	}
	set := make([]topology.Link, 0, len(lg.blocked))
	for l := range lg.blocked {
		set = append(set, l)
	}
	sort.Slice(set, func(i, j int) bool { return set[i].Index(c.p) < set[j].Index(c.p) })
	lg.sets = append(lg.sets, set)
}

// runClients runs fn on every client concurrently for a phase that
// started at t0 and ends at deadline, then settle on each client's stats
// once all have stopped, and returns the merged stats and the phase's
// wall time, from t0 until the last client's final response.
func runClients(clients []*client, t0, deadline time.Time, fn, settle func(i int, c *client, st *phaseStats)) (phaseStats, time.Duration) {
	stats := make([]phaseStats, len(clients))
	for i := range stats {
		stats[i].win = newWindows(t0, deadline.Sub(t0), phaseWindows)
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			fn(i, c, &stats[i])
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(t0)
	all := phaseStats{win: newWindows(t0, deadline.Sub(t0), phaseWindows)}
	for i, c := range clients {
		settle(i, c, &stats[i])
		all.merge(&stats[i])
	}
	return all, wall
}
