// Command perfbench is the repository's end-to-end benchmark: one process
// runs a named workload against the serving stack (routesvc backends
// behind a fleet router, over loopback TCP) or the two simulation
// engines, checks every output against the paper's invariants, and
// prints its metrics. See README.md for the workloads and metrics.
//
//	perfbench --workload batch-direct --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1
//	perfbench compare before.txt after.txt
//	perfbench pin 0 99 > pinned.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"iadm/internal/fleet"
	"iadm/internal/topology"
)

var workloads = []string{"batch-direct", "routed-churn", "sim-n1024"}

// setupRounds is how often a run sets its system up; setup_s is the
// median, and the last setup serves the run.
const setupRounds = 21

// setUp boots setupRounds times, tearing down every system but the last,
// and returns that one with the median boot time. Before each boot the
// heap is returned to the OS, so every boot starts from the same state
// and pays for fresh memory as a new process would.
func setUp[T any](boot func() (T, error), teardown func(T)) (T, float64, error) {
	var sys T
	var times []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			teardown(sys)
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if sys, err = boot(); err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, median(times), nil
}

// outcome collects one workload run.
type outcome struct {
	m          metrics
	info       map[string]any
	streamHash string
	attempted  int
	failed     int
	violations int
	errs       []string
}

func (o *outcome) violate(n int, msg string) {
	o.violations += n
	o.failed += n
	if len(o.errs) < 8 {
		o.errs = append(o.errs, msg)
	}
}

func (o *outcome) note(key string, v any) { o.info[key] = v }

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// result is the last line of a run's output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the line before it: every measured metric plus what makes
// the result comparable — the host fingerprint, seed and input digest.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Host       fingerprint    `json:"host"`
	StreamHash string         `json:"stream_hash"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Violations int            `json:"oracle_violations"`
	Errors     []string       `json:"errors,omitempty"`
	Info       map[string]any `json:"info,omitempty"`
	Metrics    metrics        `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if len(os.Args) != 4 {
				fatalf("usage: perfbench compare <before> <after>")
			}
			if err := compare(os.Args[2], os.Args[3]); err != nil {
				fatalf("compare: %v", err)
			}
			return
		case "pin":
			if len(os.Args) != 4 {
				fatalf("usage: perfbench pin <first seed> <last seed>")
			}
			lo, err1 := strconv.ParseInt(os.Args[2], 10, 64)
			hi, err2 := strconv.ParseInt(os.Args[3], 10, 64)
			if err1 != nil || err2 != nil {
				fatalf("usage: perfbench pin <first seed> <last seed>")
			}
			if err := pinSeeds(lo, hi); err != nil {
				fatalf("pin: %v", err)
			}
			return
		}
	}
	workload := flag.String("workload", "", "batch-direct, routed-churn, sim-n1024 or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	all := result{Correct: true, Metrics: metrics{}}
	for _, name := range names {
		res, err := run(name, *seed, *seconds, *trace == 1)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if len(names) == 1 {
			all = res
			break
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload and prints its report line.
func run(name string, seed int64, seconds float64, trace bool) (result, error) {
	o := &outcome{m: metrics{}, info: map[string]any{}}
	var err error
	switch name {
	case "batch-direct", "routed-churn":
		err = runServing(o, name, seed, seconds, trace)
	case "sim-n1024":
		err = runSim(o, seed, seconds, trace)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloads)
	}
	if err != nil {
		return result{}, err
	}
	if o.attempted > 0 {
		o.m.set("failed_frac", float64(o.failed)/float64(o.attempted))
	}
	rep := report{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Host: hostFingerprint(), StreamHash: o.streamHash,
		Attempted: o.attempted, Failed: o.failed, Violations: o.violations,
		Errors: o.errs, Info: o.info, Metrics: o.m,
	}
	line, err := json.Marshal(map[string]report{"report": rep})
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, e)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	return result{
		Correct:   o.violations == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   o.m.pick(defs),
	}, nil
}

// runServing runs batch-direct or routed-churn: set up the cluster, warm
// it, drive it closed-loop with nproc clients, tear it down, verify every
// served route, and in a traced run measure the layers.
func runServing(o *outcome, name string, seed int64, seconds float64, trace bool) error {
	nproc := runtime.NumCPU()
	p := topology.MustParams(netSize)
	routed := name == "routed-churn"
	var bin *batchInputs
	var cin *churnInputs
	if routed {
		cin = genChurn(seed, nproc)
		o.streamHash = hashChurn(cin)
	} else {
		var err error
		if bin, err = genBatch(seed, nproc); err != nil {
			return err
		}
		o.streamHash = hashBatch(bin)
	}

	clients := make([]*client, nproc)
	for i := range clients {
		clients[i] = &client{p: p}
		if routed {
			clients[i].answers = newAnswers(func(int) int { return 1 }, len(cin.reqs[i]))
		} else {
			items := bin.items[i]
			clients[i].answers = newAnswers(func(b int) int { return len(items[b]) }, len(items))
			clients[i].bodies = newBodyLog(len(items))
		}
	}
	ledgers := make([]*ledger, churnNets)
	for i := range ledgers {
		ledgers[i] = newLedger()
	}
	memBase := memBaseline()
	o.note("mem_baseline_mb", memBase)

	backends, nets := 1, []string(nil)
	if routed {
		backends, nets = 3, netNames()
	}
	cl, setup, err := setUp(func() (*cluster, error) { return bootCluster(backends, nets, trace) }, (*cluster).close)
	if err != nil {
		return err
	}
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			cl.close()
		}
	}
	defer shutdown()

	var w *wire
	if trace {
		w = &wire{on: &cl.tracing}
	}
	hc := newHTTPClient(nproc, w)
	defer hc.CloseIdleConnections()
	for _, c := range clients {
		c.hc, c.front = hc, cl.front
	}
	drive := func(d time.Duration) (phaseStats, time.Duration) {
		t0 := time.Now()
		deadline := t0.Add(d)
		bar := newBarrier(len(clients), deadline)
		return runClients(clients, t0, deadline, func(i int, c *client, st *phaseStats) {
			if routed {
				c.runChurn(cin.reqs[i], cin.ops[i], ledgers, deadline, st)
				return
			}
			items := bin.items[i]
			c.runBatch(bin.bodies[i], func(b int) int { return len(items[b]) }, bar, st)
		}, func(i int, c *client, st *phaseStats) {
			if !routed {
				c.settle(bin.items[i], st)
			}
		})
	}

	warm, _ := drive(secondsDur(min(1, seconds/10)))
	var st phaseStats
	var wall time.Duration
	if !trace {
		st, wall = drive(secondsDur(seconds))
	} else {
		// The first half runs untraced; the second, traced half gives the
		// layer numbers and, against the first, the tracing overhead.
		a, aWall := drive(secondsDur(seconds / 2))
		cl.tracing.Store(true)
		before := cl.snapshot(w)
		st, wall = drive(secondsDur(seconds / 2))
		after := cl.snapshot(w)
		cl.tracing.Store(false)
		servingLayers(o.m, before, after, st, routed)
		aRate := float64(a.routesOK) / aWall.Seconds()
		o.m.set("trace.overhead_frac", 1-float64(st.routesOK)/wall.Seconds()/aRate)
		st.attempted += a.attempted
		st.failed += a.failed
	}
	rate, p50, p99, samples := st.win.summary(wall)
	o.m.set("routes_per_s", rate)
	o.m.set("latency_p50_us", p50)
	o.m.set("latency_p99_us", p99)
	o.m.set("latency_samples", float64(samples))
	o.m.set("setup_s", setup)
	o.m.set("mem_peak_mb", peakRSSMB(memBase))
	if routed {
		sort.Float64s(st.mutUS)
		o.m.set("mutate_p50_us", percentile(st.mutUS, 50))
		o.m.set("mutate_samples", float64(len(st.mutUS)))
	}
	o.attempted = warm.attempted + st.attempted
	o.failed = warm.failed + st.failed
	for _, c := range clients {
		o.errs = append(o.errs, c.errs...)
	}

	var ring *fleet.Ring
	if routed {
		ring = cl.router.Ring()
	}
	hc.CloseIdleConnections()
	shutdown()

	var verdict oracleResult
	if routed {
		verdict = verifyChurn(p, cin, clients, ledgers)
	} else {
		verdict = verifyBatch(p, bin, clients)
	}
	o.note("oracle_checked", verdict.checked)
	if verdict.violations > 0 {
		o.violate(verdict.violations, strings.Join(verdict.errs, "; "))
	}
	if trace {
		if routed {
			return churnLayers(o.m, cin, ring)
		}
		return batchLayers(o.m, bin)
	}
	return nil
}
