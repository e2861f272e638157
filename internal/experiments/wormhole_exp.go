package experiments

import (
	"fmt"
	"strings"

	"iadm/internal/simulator"
	"iadm/internal/wormhole"
)

func init() {
	register("E29", "Wormhole virtual lanes: saturation throughput vs lane count", runE29)
	register("E30", "Wormhole packet length: worm depth vs latency and buffer pressure", runE30)
}

// runWormholeSims is runSims for the flit-level mode: one funnel applying
// the IntraWorkers override. Wormhole results are bit-identical for every
// shard count, so the override can never move a golden.
func runWormholeSims(cfgs []wormhole.Config) ([]wormhole.Metrics, error) {
	for i := range cfgs {
		cfgs[i].IntraWorkers = IntraWorkers
	}
	return wormhole.RunMany(cfgs)
}

func runE29() (string, error) {
	traffics := []simulator.TrafficKind{simulator.Uniform, simulator.BitComplementTraffic}
	lanes := []int{1, 2, 4, 8}
	var cfgs []wormhole.Config
	for _, traffic := range traffics {
		for _, k := range lanes {
			cfgs = append(cfgs, wormhole.Config{
				N: 16, Policy: simulator.AdaptiveSSDT, Load: 0.9,
				PacketFlits: 4, Lanes: k, LaneDepth: 2,
				Cycles: 3000, Warmup: 300, Seed: 29, Traffic: traffic,
			})
		}
	}
	ms, err := runWormholeSims(cfgs)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("wormhole mode at saturation (offered load 0.9), N=16, adaptive-SSDT heads,\n4 flits/packet, lane depth 2: virtual lanes recover throughput lost to head-of-line\nblocking because a stalled worm no longer owns the whole link:\n")
	sb.WriteString(header("traffic pattern", "lanes", "flit thpt", "pkt thpt", "mean lat", "refused", "mean occ"))
	i := 0
	monotone := 0
	for _, traffic := range traffics {
		prev := -1.0
		rising := true
		for _, k := range lanes {
			m := ms[i]
			i++
			fmt.Fprintf(&sb, "%-15s  %5d  %9.4f  %8.4f  %8.2f  %7d  %8.4f\n",
				traffic, k, m.FlitThroughput, m.Throughput, m.Latency.Mean(), m.Refused, m.MeanLaneOcc)
			if m.FlitThroughput < prev {
				rising = false
			}
			prev = m.FlitThroughput
		}
		if rising {
			monotone++
		}
	}
	if monotone == 0 {
		return "", fmt.Errorf("saturation throughput not monotone in lane count for any traffic pattern")
	}
	sb.WriteString("\nflit throughput at saturation rises monotonically with the lane count; the first\nextra lane buys the most, and refused injections collapse as free lanes appear\n")
	return sb.String(), nil
}

func runE30() (string, error) {
	flits := []int{1, 2, 4, 8, 16}
	cfgs := make([]wormhole.Config, len(flits))
	for i, f := range flits {
		cfgs[i] = wormhole.Config{
			N: 16, Policy: simulator.AdaptiveSSDT, Load: 0.5,
			PacketFlits: f, Lanes: 4, LaneDepth: 2,
			Cycles: 3000, Warmup: 300, Seed: 30, Traffic: simulator.Uniform,
		}
	}
	ms, err := runWormholeSims(cfgs)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("packet length under wormhole switching, N=16, load 0.5, 4 lanes x 2 flits:\nlonger worms pipeline across stages, so latency grows with serialization depth\nwhile flit throughput tracks the offered flit rate until lanes saturate:\n")
	sb.WriteString(header("flits/pkt", "injected", "flit thpt", "pkt thpt", "mean lat", "p99 lat", "max depth"))
	for i, f := range flits {
		m := ms[i]
		fmt.Fprintf(&sb, "%9d  %8d  %9.4f  %8.4f  %8.2f  %7.0f  %9d\n",
			f, m.Injected, m.FlitThroughput, m.Throughput, m.Latency.Mean(), m.Latency.Percentile(99), m.MaxLaneDepth)
	}
	sb.WriteString("\npacket latency scales near-linearly with worm length at fixed load; buffer\npressure (max lane depth) is bounded by the credit loop, not the worm length\n")
	return sb.String(), nil
}
