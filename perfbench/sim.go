package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"iadm/internal/blockage"
	"iadm/internal/refsim"
	"iadm/internal/refwh"
	"iadm/internal/simulator"
	"iadm/internal/stats"
	"iadm/internal/topology"
	"iadm/internal/wormhole"
)

// The sim-n1024 workload. A job is one packet-engine replica sweep
// through simulator.RunManyWorkers(workers=nproc) plus one wormhole run
// on a Runner stepped with IntraWorkers=nproc; both engines are
// fault-free over the same fixed blocked nonstraight links, the range in
// which refsim/refwh agree with them exactly. Every replica of every job
// must reproduce the statistics pinned for the workload seed.

// streamSum is the part of a stats.Stream two runs are compared on.
type streamSum struct {
	N                   int
	Min, Max, Mean, Var float64
	Pct                 [10]float64
}

var sumPercentiles = [10]float64{0, 1, 5, 25, 50, 75, 90, 95, 99, 100}

func sumStream(s *stats.Stream) streamSum {
	out := streamSum{N: s.N(), Min: s.Min(), Max: s.Max(), Mean: s.Mean(), Var: s.Variance()}
	for i, p := range sumPercentiles {
		out.Pct[i] = s.Percentile(p)
	}
	return out
}

// packetSum and wormSum hold every simulated statistic of one run.
type packetSum struct {
	Injected, Delivered, Dropped, Refused, MaxQueue int
	MeanQueue, Throughput                           float64
	Latency, UtilStraight, UtilNonstraight          streamSum
}

type wormSum struct {
	Injected, Delivered, Dropped, Refused       int
	FlitsInjected, FlitsDelivered, FlitsDropped int
	MaxLaneDepth                                int
	MeanLaneOcc, Throughput, FlitThroughput     float64
	Latency, UtilStraight, UtilNonstraight      streamSum
}

func sumPacket(m *simulator.Metrics) packetSum {
	return packetSum{m.Injected, m.Delivered, m.Dropped, m.Refused, m.MaxQueue, m.MeanQueue, m.Throughput,
		sumStream(&m.Latency), sumStream(&m.UtilStraight), sumStream(&m.UtilNonstraight)}
}

func sumWorm(m *wormhole.Metrics) wormSum {
	return wormSum{m.Injected, m.Delivered, m.Dropped, m.Refused, m.FlitsInjected, m.FlitsDelivered, m.FlitsDropped,
		m.MaxLaneDepth, m.MeanLaneOcc, m.Throughput, m.FlitThroughput,
		sumStream(&m.Latency), sumStream(&m.UtilStraight), sumStream(&m.UtilNonstraight)}
}

// statHash digests a run's statistics bit for bit.
func statHash(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(h[:8])
}

// closeTo is the oracle packages' tolerance for stream moments, which the
// engines and oracles accumulate in different orders.
func closeTo(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// agree compares an engine run with its oracle's: every counter, rate,
// extreme and percentile exactly, the mean and variance within the
// oracle tests' tolerances.
func agree[T any](got, want T, streams func(*T) []*streamSum) error {
	gs, ws := streams(&got), streams(&want)
	for i := range gs {
		if !closeTo(gs[i].Mean, ws[i].Mean, 1e-9) || !closeTo(gs[i].Var, ws[i].Var, 1e-6) {
			return fmt.Errorf("stream %d moments %v/%v, oracle %v/%v", i, gs[i].Mean, gs[i].Var, ws[i].Mean, ws[i].Var)
		}
		gs[i].Mean, gs[i].Var, ws[i].Mean, ws[i].Var = 0, 0, 0, 0
	}
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		return fmt.Errorf("engine %s\noracle %s", g, w)
	}
	return nil
}

func packetStreams(s *packetSum) []*streamSum {
	return []*streamSum{&s.Latency, &s.UtilStraight, &s.UtilNonstraight}
}

func wormStreams(s *wormSum) []*streamSum {
	return []*streamSum{&s.Latency, &s.UtilStraight, &s.UtilNonstraight}
}

// pinnedSim is the statistics digest of one seed's runs: one hash per
// packet replica (in replica order) and one for the wormhole run.
type pinnedSim struct {
	Packet   []string `json:"packet"`
	Wormhole string   `json:"wormhole"`
}

//go:embed pinned.json
var pinnedJSON []byte

func pinnedFor(seed int64) (pinnedSim, bool, error) {
	var all map[string]pinnedSim
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return pinnedSim{}, false, fmt.Errorf("pinned.json: %w", err)
	}
	p, ok := all[strconv.FormatInt(seed, 10)]
	return p, ok, nil
}

// simRig is a set-up simulation: the configs with the blocked set
// attached and the wormhole Runner.
type simRig struct {
	packet []simulator.Config
	worm   wormhole.Config
	runner *wormhole.Runner
}

func setupSim(in *simInputs) (*simRig, error) {
	blk := blockage.NewSet(topology.MustParams(netSize))
	for _, l := range in.blocked {
		blk.Block(l)
	}
	rig := &simRig{packet: append([]simulator.Config(nil), in.packet...), worm: in.worm}
	for i := range rig.packet {
		rig.packet[i].Blocked = blk
	}
	rig.worm.Blocked = blk
	r, err := wormhole.NewRunner(rig.worm)
	if err != nil {
		return nil, err
	}
	rig.runner = r
	return rig, nil
}

// simJob is one job's outcome.
type simJob struct {
	packetNs, wormNs int64
	packet           []packetSum
	worm             wormSum
}

func (r *simRig) job(workers int) (simJob, error) {
	t0 := time.Now()
	ms, err := simulator.RunManyWorkers(r.packet, workers)
	t1 := time.Now()
	if err != nil {
		return simJob{}, err
	}
	wm := r.runner.RunSeed(r.worm.Seed)
	j := simJob{packetNs: int64(t1.Sub(t0)), wormNs: int64(time.Since(t1)), worm: sumWorm(&wm)}
	for i := range ms {
		j.packet = append(j.packet, sumPacket(&ms[i]))
	}
	return j, nil
}

func (j simJob) delivered() int {
	n := j.worm.Delivered
	for _, p := range j.packet {
		n += p.Delivered
	}
	return n
}

// hashes returns the job's per-replica digests.
func (j simJob) hashes() pinnedSim {
	p := pinnedSim{Wormhole: statHash(j.worm)}
	for _, s := range j.packet {
		p.Packet = append(p.Packet, statHash(s))
	}
	return p
}

// mismatches counts the replicas of got that differ from want; replicas
// beyond want's length are not pinned.
func (want pinnedSim) mismatches(got pinnedSim) int {
	n := 0
	if got.Wormhole != want.Wormhole {
		n++
	}
	for i := range got.Packet {
		if i < len(want.Packet) && got.Packet[i] != want.Packet[i] {
			n++
		}
	}
	return n
}

// simPhase is what the timed loop measured.
type simPhase struct {
	jobs             int
	win              *windows // job latencies and packets delivered
	packetNs, wormNs int64
	mismatched       int
	wall             time.Duration
}

func (r *simRig) loop(workers int, d time.Duration, want pinnedSim) (simPhase, error) {
	t0 := time.Now()
	deadline := t0.Add(d)
	ph := simPhase{win: newWindows(t0, d, phaseWindows)}
	for time.Now().Before(deadline) {
		j, err := r.job(workers)
		if err != nil {
			return ph, err
		}
		w := ph.win.now()
		ph.jobs++
		ph.win.lat[w] = append(ph.win.lat[w], float64(j.packetNs+j.wormNs)/1e3)
		ph.win.work[w] += float64(j.delivered())
		ph.packetNs += j.packetNs
		ph.wormNs += j.wormNs
		ph.mismatched += want.mismatches(j.hashes())
	}
	ph.wall = time.Since(t0)
	return ph, nil
}

func (ph simPhase) cycleRates(r *simRig) (packet, worm float64) {
	pc := float64(ph.jobs * len(r.packet) * (r.packet[0].Cycles + r.packet[0].Warmup))
	wc := float64(ph.jobs * (r.worm.Cycles + r.worm.Warmup))
	return pc / (float64(ph.packetNs) / 1e9), wc / (float64(ph.wormNs) / 1e9)
}

// runSim runs the sim-n1024 workload.
func runSim(o *outcome, seed int64, seconds float64, trace bool) error {
	nproc := runtime.NumCPU()
	in := genSim(seed, nproc)
	o.streamHash = hashSim(in)

	memBase := memBaseline()
	o.note("mem_baseline_mb", memBase)
	rig, setup, err := setUp(func() (*simRig, error) { return setupSim(in) }, func(r *simRig) { r.runner.Close() })
	if err != nil {
		return err
	}
	defer rig.runner.Close()

	// The warm-up job fixes the expected statistics, unless the seed is
	// pinned, in which case it must match the pin too.
	first, err := rig.job(nproc)
	if err != nil {
		return err
	}
	want := first.hashes()
	pin, pinned, err := pinnedFor(seed)
	if err != nil {
		return err
	}
	if pinned {
		if n := pin.mismatches(want); n > 0 {
			o.violate(n, fmt.Sprintf("seed %d: %d runs differ from pinned.json", seed, n))
		}
		want = pin
	}
	o.note("pinned", pinned)

	ph, err := rig.loop(nproc, secondsDur(seconds), want)
	if err != nil {
		return err
	}
	pr, wr := ph.cycleRates(rig)
	o.m.set("packet_cycles_per_s", pr)
	o.m.set("wormhole_cycles_per_s", wr)
	rate, p50, p99, samples := ph.win.summary(ph.wall)
	o.m.set("routes_per_s", rate)
	o.m.set("latency_p50_us", p50)
	o.m.set("latency_p99_us", p99)
	o.m.set("latency_samples", float64(samples))
	o.m.set("setup_s", setup)
	o.m.set("mem_peak_mb", peakRSSMB(memBase))
	if trace {
		o.m.set("simulator.ns_per_cycle", 1e9/pr)
		o.m.set("wormhole.ns_per_cycle", 1e9/wr)
		// The traced sim run adds nothing inside the job loop; its layer
		// numbers come from simLayers afterwards.
		o.m.set("trace.overhead_frac", 0)
		if err := simLayers(o.m, rig, &first, nproc); err != nil {
			return err
		}
	}
	runs := (ph.jobs + 1) * (len(rig.packet) + 1)
	o.attempted += runs
	if ph.mismatched > 0 {
		o.violate(ph.mismatched, fmt.Sprintf("%d runs differ from the expected statistics", ph.mismatched))
	}

	// The oracles, outside the timed region: replica 0 and the wormhole
	// run must agree exactly with refsim and refwh.
	ref, err := refsim.Run(rig.packet[0])
	if err != nil {
		return err
	}
	o.attempted++
	if err := agree(first.packet[0], sumPacket(&ref), packetStreams); err != nil {
		o.violate(1, "refsim: "+err.Error())
	}
	refW, err := refwh.Run(rig.worm)
	if err != nil {
		return err
	}
	o.attempted++
	if err := agree(first.worm, sumWorm(&refW), wormStreams); err != nil {
		o.violate(1, "refwh: "+err.Error())
	}
	return nil
}

// simLayers measures the engines' per-layer numbers: the statistics of
// replica 0, steady-state allocations per RunSeed and the speed-up of
// intra-run sharding at nproc workers over one.
func simLayers(m metrics, rig *simRig, first *simJob, nproc int) error {
	p := first.packet[0]
	m.set("simulator.delivered", float64(p.Delivered))
	m.set("simulator.refused", float64(p.Refused))
	m.set("simulator.dropped", float64(p.Dropped))
	m.set("simulator.latency_mean", p.Latency.Mean)
	m.set("wormhole.flits_delivered", float64(first.worm.FlitsDelivered))
	m.set("wormhole.refused", float64(first.worm.Refused))
	m.set("wormhole.mean_lane_occ", first.worm.MeanLaneOcc)

	pcfg := rig.packet[0]
	pcfg.IntraWorkers = nproc
	pkt, err := simulator.NewRunner(pcfg)
	if err != nil {
		return err
	}
	defer pkt.Close()
	pcfg.IntraWorkers = 1
	pkt1, err := simulator.NewRunner(pcfg)
	if err != nil {
		return err
	}
	defer pkt1.Close()
	wcfg := rig.worm
	wcfg.IntraWorkers = 1
	worm1, err := wormhole.NewRunner(wcfg)
	if err != nil {
		return err
	}
	defer worm1.Close()

	packetRun := func(r *simulator.Runner) func() { return func() { r.RunSeed(pcfg.Seed) } }
	wormRun := func(r *wormhole.Runner) func() { return func() { r.RunSeed(wcfg.Seed) } }
	m.set("simulator.allocs_per_run", runAllocs(packetRun(pkt)))
	m.set("wormhole.allocs_per_run", runAllocs(wormRun(rig.runner)))
	m.set("simulator.intra_speedup", runTime(packetRun(pkt1))/runTime(packetRun(pkt)))
	m.set("wormhole.intra_speedup", runTime(wormRun(worm1))/runTime(wormRun(rig.runner)))
	return nil
}

// runAllocs is the median allocation count of three single runs after a
// warm-up run: an exact integer.
func runAllocs(run func()) float64 {
	run()
	var counts []float64
	for i := 0; i < 3; i++ {
		n, _, _ := allocs(run)
		counts = append(counts, float64(n))
	}
	sort.Float64s(counts)
	return counts[1]
}

// runTime is the median wall time of five runs after a warm-up run.
func runTime(run func()) float64 {
	run()
	var ts []float64
	for i := 0; i < 5; i++ {
		_, _, ns := allocs(run)
		ts = append(ts, float64(ns))
	}
	return median(ts)
}

// pinSeeds prints pinned.json entries for seeds lo..hi.
func pinSeeds(lo, hi int64) error {
	out := make(map[string]pinnedSim)
	for seed := lo; seed <= hi; seed++ {
		in := genSim(seed, pinReplicas/replicasPerCPU)
		rig, err := setupSim(in)
		if err != nil {
			return err
		}
		j, err := rig.job(runtime.NumCPU())
		rig.runner.Close()
		if err != nil {
			return err
		}
		out[strconv.FormatInt(seed, 10)] = j.hashes()
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
