package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"iadm/internal/core"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// TestStreamsDeterministic: one seed gives byte-identical request, churn
// and simulation inputs (and so one stream hash); another seed gives
// different ones.
func TestStreamsDeterministic(t *testing.T) {
	const clients = 2
	b1, err := genBatch(7, clients)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := genBatch(7, clients)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := genBatch(8, clients)
	if err != nil {
		t.Fatal(err)
	}
	for c := range b1.bodies {
		for i := range b1.bodies[c] {
			if !bytes.Equal(b1.bodies[c][i], b2.bodies[c][i]) {
				t.Fatalf("batch-direct: client %d batch %d differs between runs of one seed", c, i)
			}
		}
	}
	if h1, h2, h3 := hashBatch(b1), hashBatch(b2), hashBatch(b3); h1 != h2 || h1 == h3 {
		t.Errorf("batch-direct hashes: seed 7 %s and %s, seed 8 %s", h1, h2, h3)
	}

	c1, c2, c3 := genChurn(7, clients), genChurn(7, clients), genChurn(8, clients)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("routed-churn: streams of one seed differ")
	}
	if h1, h2, h3 := hashChurn(c1), hashChurn(c2), hashChurn(c3); h1 != h2 || h1 == h3 {
		t.Errorf("routed-churn hashes: seed 7 %s and %s, seed 8 %s", h1, h2, h3)
	}

	s1, s2, s3 := genSim(7, clients), genSim(7, clients), genSim(8, clients)
	if h1, h2, h3 := hashSim(s1), hashSim(s2), hashSim(s3); h1 != h2 || h1 == h3 {
		t.Errorf("sim-n1024 hashes: seed 7 %s and %s, seed 8 %s", h1, h2, h3)
	}
	if wide := genSim(7, 2*clients); wide.worm.Seed != s1.worm.Seed || wide.packet[0].Seed != s1.packet[0].Seed {
		t.Error("sim-n1024: the wormhole and first replica seeds depend on nproc")
	}
}

// TestStreamShape checks the generated mixes: every batch size cycle is
// complete, about a tenth of the items are TSDT, and the churn pools
// never put two toggleable links on one switch of a partition.
func TestStreamShape(t *testing.T) {
	b, err := genBatch(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int]int)
	tsdt, total := 0, 0
	for _, batch := range b.items[0] {
		sizes[len(batch)]++
		for _, it := range batch {
			total++
			if it.scheme == routesvc.SchemeTSDT {
				tsdt++
			}
		}
	}
	want := map[int]int{64: batchCycles, 65: batchCycles, 200: 3 * batchCycles, 1024: batchCycles}
	if !reflect.DeepEqual(sizes, want) {
		t.Errorf("batch sizes %v, want %v", sizes, want)
	}
	if share := float64(tsdt) / float64(total); share < 0.08 || share > 0.12 {
		t.Errorf("TSDT share %.3f, want about %.2f", share, tsdtBatchShare)
	}
	for net, pools := range churnPools(3, 4) {
		seen := make(map[[2]int]bool)
		for _, pool := range pools {
			for _, l := range pool {
				if !l.Kind.Nonstraight() || seen[[2]int{l.Stage, l.From}] {
					t.Fatalf("p%d: link %s repeats a switch or is straight", net, l.Spec())
				}
				seen[[2]int{l.Stage, l.From}] = true
			}
		}
	}
}

// TestChurnDirections: walking a client's stream in order, each op faults
// a link that is up or repairs one that is down, and the stream ends with
// every link up, so a client that wraps around its stream stays in step.
func TestChurnDirections(t *testing.T) {
	in := genChurn(5, 2)
	for c, reqs := range in.reqs {
		down := make(map[churnOp]bool)
		ops := 0
		for i, s := range reqs {
			if s.op < 0 {
				continue
			}
			ops++
			op := in.ops[c][s.op]
			key := churnOp{net: op.net, link: op.link}
			if op.repair != down[key] {
				t.Fatalf("client %d request %d: repair=%t but link %s down=%t", c, i, op.repair, op.link.Spec(), down[key])
			}
			down[key] = !op.repair
		}
		for k, d := range down {
			if d {
				t.Errorf("client %d: p%d %s is down at the end of the stream", c, k.net, k.link.Spec())
			}
		}
		if ops != len(in.ops[c]) {
			t.Errorf("client %d: %d ops on the stream, %d generated", c, ops, len(in.ops[c]))
		}
	}
}

// TestOracleFlagsBadRoutes: the serving oracle accepts served tags and
// rejects a TSDT route through a link blocked at its epoch, a tag for
// another destination, and an epoch nobody acked.
func TestOracleFlagsBadRoutes(t *testing.T) {
	p := topology.MustParams(netSize)
	it := item{src: 5, dst: 700, scheme: routesvc.SchemeTSDT}
	tag := core.MustTag(p, it.dst)
	path := tag.Follow(p, it.src)
	var nonstraight topology.Link
	for _, l := range path.Links {
		if l.Kind.Nonstraight() {
			nonstraight = l
			break
		}
	}
	sets := [][]topology.Link{nil, {nonstraight}}
	if err := verifyRoute(p, it, tag, 0, sets); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
	if err := verifyRoute(p, it, tag, 1, sets); err == nil {
		t.Error("route through a blocked link accepted")
	}
	ssdt := it
	ssdt.scheme = routesvc.SchemeSSDT
	if err := verifyRoute(p, ssdt, tag, 1, sets); err != nil {
		t.Errorf("SSDT route rejected for a blocked link: %v", err)
	}
	if err := verifyRoute(p, it, core.MustTag(p, 701), 0, sets); err == nil {
		t.Error("tag for another destination accepted")
	}
	if err := verifyRoute(p, it, tag, 2, sets); err == nil {
		t.Error("unacked epoch accepted")
	}
	packed, err := packServed(tag.FlipStateBit(3), 9)
	if err != nil {
		t.Fatal(err)
	}
	if got, epoch := unpackServed(p, packed); got != tag.FlipStateBit(3) || epoch != 9 {
		t.Errorf("packServed round trip: %v@%d", got, epoch)
	}
}

// TestBenchmarkJSON: BENCHMARK.json lists exactly the metrics this
// program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program prints %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program prints %v", spec.PerLayer, perLayer)
	}
}

// TestSimOracleCompare: agree accepts an engine run that matches its
// oracle's up to the moment tolerances and rejects any other difference.
func TestSimOracleCompare(t *testing.T) {
	a := packetSum{Delivered: 10, Latency: streamSum{N: 3, Mean: 2.5, Var: 1}}
	b := a
	b.Latency.Mean += 1e-12
	if err := agree(a, b, packetStreams); err != nil {
		t.Errorf("rounding-level moment difference rejected: %v", err)
	}
	b.Refused++
	if err := agree(a, b, packetStreams); err == nil {
		t.Error("counter difference accepted")
	}
	c := a
	c.Latency.Var *= 2
	if err := agree(a, c, packetStreams); err == nil {
		t.Error("variance difference accepted")
	}
}
