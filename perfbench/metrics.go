package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. The endToEnd and perLayer lists
// must match BENCHMARK.json (checked by gen_test.go); extra metrics appear
// only in the report line.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"routes_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"mem_peak_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"transport.self_us", "us", "lower"},
	{"http.req_bytes_per_route", "B", "lower"},
	{"http.resp_bytes_per_route", "B", "lower"},
	{"http.handler_us_per_route", "us", "lower"},
	{"http.replay_ns_per_route", "ns", "lower"},
	{"http.replay_allocs_per_route", "count", "lower"},
	{"http.replay_bytes_per_route", "B", "lower"},
	{"fleet.self_us", "us", "lower"},
	{"fleet.backend_calls_per_req", "count", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.hedges", "count", "lower"},
	{"fleet.ring_owner_ns", "ns", "lower"},
	{"fleet.mutate_us", "us", "lower"},
	{"mutate_p50_us", "us", "lower"},
	{"controller.fault_apply_us", "us", "lower"},
	{"controller.reroute_ns", "ns", "lower"},
	{"svc.batch_ns_per_route", "ns", "lower"},
	{"svc.batch_allocs_per_route", "count", "lower"},
	{"svc.sliced_lane_fill", "frac", "higher"},
	{"svc.route_ns", "ns", "lower"},
	{"svc.route_allocs", "count", "lower"},
	{"svc.ssdt_hit_rate", "frac", "higher"},
	{"svc.tsdt_hit_rate", "frac", "higher"},
	{"svc.coalesced_frac", "frac", "higher"},
	{"svc.invalidations", "count", "lower"},
	{"svc.admission_shed", "count", "lower"},
	{"core.sliced_ns_per_route", "ns", "lower"},
	{"core.sliced_allocs", "count", "lower"},
	{"core.dense_lookup_ns", "ns", "lower"},
	{"core.dense_lookup_allocs", "count", "lower"},
	{"packet_cycles_per_s", "1/s", "higher"},
	{"simulator.ns_per_cycle", "ns", "lower"},
	{"simulator.allocs_per_run", "count", "lower"},
	{"simulator.intra_speedup", "x", "higher"},
	{"simulator.delivered", "count", "higher"},
	{"simulator.refused", "count", "lower"},
	{"simulator.dropped", "count", "lower"},
	{"simulator.latency_mean", "cycles", "lower"},
	{"wormhole_cycles_per_s", "1/s", "higher"},
	{"wormhole.ns_per_cycle", "ns", "lower"},
	{"wormhole.allocs_per_run", "count", "lower"},
	{"wormhole.intra_speedup", "x", "higher"},
	{"wormhole.flits_delivered", "count", "higher"},
	{"wormhole.refused", "count", "lower"},
	{"wormhole.mean_lane_occ", "flits", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// extra metrics go to the report line of every run.
var extra = []metricDef{
	{"failed_frac", "frac", "lower"},
	{"latency_samples", "count", "higher"},
	{"mutate_samples", "count", "higher"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, list := range [][]metricDef{endToEnd, perLayer, extra} {
		for _, d := range list {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric under its registered unit; an unregistered name is
// a bug in this package.
func (m metrics) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: u}
}

// pick returns the metrics of defs, zero-filling those the workload does
// not exercise (a fleet metric on batch-direct, say).
func (m metrics) pick(defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			v = metric{Unit: d.Unit}
		}
		out[d.Name] = v
	}
	return out
}

// fingerprint identifies the host a result was measured on. Results with
// different fingerprints are not comparable.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		fatalf("cpu model: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	fatalf("cpu model: no model name in /proc/cpuinfo")
	return ""
}

// procStatusMB reads one kB field of /proc/self/status, in MB.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatalf("%s: %v", field, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				fatalf("%s: %v", field, err)
			}
			return kb / 1024
		}
	}
	fatalf("%s: not in /proc/self/status", field)
	return 0
}

// memBaseline returns the resident set of the harness alone, with the
// run's inputs built and the heap collected, and restarts the peak
// resident set (VmHWM) from there; peakRSSMB then reports what the system
// under test added on top.
func memBaseline() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	base := procStatusMB("VmRSS")
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fatalf("reset peak resident set: %v", err)
	}
	return base
}

// peakRSSMB returns the peak resident set (VmHWM) above base.
func peakRSSMB(base float64) float64 {
	return procStatusMB("VmHWM") - base
}

// allocs measures fn's heap allocations (count and bytes) and wall time.
func allocs(fn func()) (mallocs, bytes uint64, ns int64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	ns = int64(time.Since(t0))
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, ns
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q/100*float64(len(sorted))+0.5) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phaseWindows is how many equal time windows a timed phase is split
// into.
const phaseWindows = 6

// windows splits a timed phase into equal time windows, so that host
// noise confined to part of a run can be told apart: the host this was
// tuned on has CPU-steal episodes of around ten seconds, during which
// every job slows by up to half. Throughput is the median across the
// windows; latency percentiles pool the samples of the faster half of
// the windows, ranked by throughput. A slowdown of the program slows
// every window alike and shows in full.
type windows struct {
	start time.Time
	width time.Duration
	lat   [][]float64 // per window: latencies in µs
	work  []float64   // per window: routes or packets completed
}

func newWindows(start time.Time, total time.Duration, n int) *windows {
	return &windows{start: start, width: total / time.Duration(n), lat: make([][]float64, n), work: make([]float64, n)}
}

// now returns the window the present instant falls in; the last window
// also takes whatever completes after the deadline.
func (w *windows) now() int {
	return min(int(time.Since(w.start)/w.width), len(w.work)-1)
}

func (w *windows) merge(o *windows) {
	for i := range w.work {
		w.lat[i] = append(w.lat[i], o.lat[i]...)
		w.work[i] += o.work[i]
	}
}

// summary returns the median window's completion rate, the p50 and p99
// latency over the faster half of the windows, and the number of latency
// samples in the phase. wall is the phase's wall time, which ends the
// last window.
func (w *windows) summary(wall time.Duration) (rate, p50, p99 float64, samples int) {
	n := len(w.work)
	rates := make([]float64, n)
	order := make([]int, n)
	for i := range w.work {
		width := w.width
		if i == n-1 {
			width = wall - time.Duration(n-1)*w.width
		}
		rates[i] = w.work[i] / width.Seconds()
		order[i] = i
		samples += len(w.lat[i])
	}
	sort.Slice(order, func(a, b int) bool { return rates[order[a]] > rates[order[b]] })
	var fast []float64
	for _, i := range order[:(n+1)/2] {
		fast = append(fast, w.lat[i]...)
	}
	sort.Float64s(fast)
	return median(rates), percentile(fast, 50), percentile(fast, 99), samples
}
