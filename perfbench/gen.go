package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"iadm/internal/routesvc"
	"iadm/internal/simulator"
	"iadm/internal/topology"
	"iadm/internal/wormhole"
)

// Workload generation. Every batch, single request, churn operation and
// simulation config a run uses is drawn here from the workload seed before
// any timing starts: the program under test only ever sees the generated
// inputs, and one seed always yields byte-identical streams (pinned by
// gen_test.go and reported as stream_hash).

// netSize is the fabric size of every workload.
const netSize = 1024

// Stream shapes. Each client cycles through its own stream, so the
// lengths bound memory, not run time.
const (
	batchCycles     = 43      // shuffled size cycles per batch-direct client
	hotPairCount    = 512     // TSDT pair set, small enough to stay cached
	tsdtBatchShare  = 0.10    // TSDT share of batch items
	singleStreamLen = 1 << 17 // requests per routed-churn client
	tsdtSingleShare = 0.30    // TSDT share of routed-churn requests
	zipfS           = 1.3     // SSDT destination skew on routed-churn
	churnProb       = 0.01    // per-request probability of a link toggle
	churnNets       = 4       // partitions p0..p3
	poolPerClient   = 8       // toggleable links per client per net
	// churnTail is the end of each client's stream that draws no toggles
	// and instead repairs every link left down.
	churnTail = churnNets * poolPerClient
)

// batchSizes is one batch-direct size cycle: one full 64-lane block, a
// block plus a one-lane remainder, a partial remainder, and a large batch.
// Request latency has one mode per size; listing 200 three times puts the
// median well inside a mode rather than in the gap between two. Every
// cycle is shuffled, which keeps the mix exact for every seed.
var batchSizes = [...]int{64, 65, 200, 200, 200, 1024}

// Purposes decorrelate the per-stream random sources of one seed.
const (
	purposeBatch uint64 = iota + 1
	purposeHot
	purposeSingle
	purposePool
	purposeSim
	purposeSizes
)

// mix64 is the splitmix64 finalizer, used to derive independent stream
// seeds from (workload seed, purpose, client).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func streamRand(seed int64, purpose, client uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ mix64(purpose<<32|client)))))
}

// item is one route request.
type item struct {
	src, dst int
	scheme   routesvc.Scheme
}

// batchInputs is the batch-direct traffic: per client, a cycle of batches
// and their pre-encoded POST /route/batch bodies.
type batchInputs struct {
	items  [][][]item // [client][batch]
	bodies [][][]byte // [client][batch]
}

func genBatch(seed int64, clients int) (*batchInputs, error) {
	hr := streamRand(seed, purposeHot, 0)
	hot := make([]item, hotPairCount)
	for i := range hot {
		hot[i] = item{src: hr.Intn(netSize), dst: hr.Intn(netSize), scheme: routesvc.SchemeTSDT}
	}
	// One size sequence for all clients: they send in rounds, one
	// position per round, so concurrent batches have equal sizes.
	sr := streamRand(seed, purposeSizes, 0)
	var sizes []int
	for k := 0; k < batchCycles; k++ {
		cycle := batchSizes
		sr.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		sizes = append(sizes, cycle[:]...)
	}
	in := &batchInputs{items: make([][][]item, clients), bodies: make([][][]byte, clients)}
	for c := 0; c < clients; c++ {
		r := streamRand(seed, purposeBatch, uint64(c))
		for _, size := range sizes {
			items := make([]item, size)
			wire := routesvc.BatchJSON{Requests: make([]routesvc.RouteJSON, size)}
			for i := range items {
				if r.Float64() < tsdtBatchShare {
					items[i] = hot[r.Intn(len(hot))]
				} else {
					items[i] = item{src: r.Intn(netSize), dst: r.Intn(netSize), scheme: routesvc.SchemeSSDT}
				}
				wire.Requests[i] = routesvc.RouteJSON{Src: items[i].src, Dst: items[i].dst, Scheme: items[i].scheme.String()}
			}
			body, err := json.Marshal(wire)
			if err != nil {
				return nil, fmt.Errorf("encode batch: %w", err)
			}
			in.items[c] = append(in.items[c], items)
			in.bodies[c] = append(in.bodies[c], body)
		}
	}
	return in, nil
}

// single is one routed-churn request: a GET /route on one partition,
// optionally preceded by a link toggle (op >= 0 indexes the client's ops).
type single struct {
	net int
	item
	url string
	op  int32
}

// churnOp faults one link of one partition, or repairs it. The generator
// sets the direction: each link's ops alternate, starting with a fault,
// and a client's stream leaves every link up, so a client that cycles
// through its stream finds every link in the state the op expects.
type churnOp struct {
	net    int
	link   topology.Link
	repair bool
}

// churnInputs is the routed-churn traffic: per client, a request cycle
// and the link toggles riding on it.
type churnInputs struct {
	reqs [][]single  // [client]
	ops  [][]churnOp // [client]
}

// churnPools draws, per partition, poolPerClient nonstraight links for
// each client, every one leaving a different switch. No switch can then
// lose both nonstraight outputs, so whatever subset is down, every pair
// keeps a path: at each stage a needed nonstraight move has a live sign
// and a straight move is never blocked. Disjoint pools also mean each
// link has one owner, so every toggle changes the map.
func churnPools(seed int64, clients int) [][][]topology.Link {
	r := streamRand(seed, purposePool, 0)
	pools := make([][][]topology.Link, churnNets)
	for net := range pools {
		links := nonstraightLinks(r, clients*poolPerClient)
		pools[net] = make([][]topology.Link, clients)
		for c := range pools[net] {
			pools[net][c] = links[c*poolPerClient : (c+1)*poolPerClient]
		}
	}
	return pools
}

// nonstraightLinks draws count nonstraight links of a netSize fabric, each
// leaving a different switch.
func nonstraightLinks(r *rand.Rand, count int) []topology.Link {
	p := topology.MustParams(netSize)
	used := make(map[[2]int]bool)
	var links []topology.Link
	for len(links) < count {
		st, sw := r.Intn(p.Stages()), r.Intn(netSize)
		if used[[2]int{st, sw}] {
			continue
		}
		used[[2]int{st, sw}] = true
		kind := topology.Plus
		if r.Intn(2) == 0 {
			kind = topology.Minus
		}
		links = append(links, topology.Link{Stage: st, From: sw, Kind: kind})
	}
	return links
}

func genChurn(seed int64, clients int) *churnInputs {
	pools := churnPools(seed, clients)
	in := &churnInputs{reqs: make([][]single, clients), ops: make([][]churnOp, clients)}
	for c := 0; c < clients; c++ {
		r := streamRand(seed, purposeSingle, uint64(c))
		// Zipf ranks map through a seeded permutation, so the hot
		// destinations differ per seed instead of always being 0, 1, 2.
		zipf := rand.NewZipf(r, zipfS, 1, netSize-1)
		perm := r.Perm(netSize)
		down := make(map[topology.Link]bool)
		reqs := make([]single, singleStreamLen)
		for i := range reqs {
			s := single{net: r.Intn(churnNets), op: -1}
			if r.Float64() < tsdtSingleShare {
				s.item = item{src: r.Intn(netSize), dst: r.Intn(netSize), scheme: routesvc.SchemeTSDT}
			} else {
				s.item = item{src: r.Intn(netSize), dst: perm[zipf.Uint64()], scheme: routesvc.SchemeSSDT}
			}
			s.url = fmt.Sprintf("/route?net=p%d&src=%d&dst=%d&scheme=%s", s.net, s.src, s.dst, s.scheme)
			if i < len(reqs)-churnTail && r.Float64() < churnProb {
				net := r.Intn(churnNets)
				pool := pools[net][c]
				link := pool[r.Intn(len(pool))]
				s.op = int32(len(in.ops[c]))
				in.ops[c] = append(in.ops[c], churnOp{net: net, link: link, repair: down[link]})
				down[link] = !down[link]
			}
			reqs[i] = s
		}
		// The tail repairs, in pool order, whatever is still down.
		i := len(reqs) - churnTail
		for net := range pools {
			for _, link := range pools[net][c] {
				if down[link] {
					reqs[i].op = int32(len(in.ops[c]))
					in.ops[c] = append(in.ops[c], churnOp{net: net, link: link, repair: true})
					i++
				}
			}
		}
		in.reqs[c] = reqs
	}
	return in
}

func netNames() []string {
	names := make([]string, churnNets)
	for i := range names {
		names[i] = "p" + strconv.Itoa(i)
	}
	return names
}

// simInputs is the sim-n1024 job: a packet-engine replica sweep and one
// wormhole run, both fault-free over the same fixed blocked links.
type simInputs struct {
	blocked []topology.Link
	packet  []simulator.Config
	worm    wormhole.Config
}

// Simulation sizes: a job is one replica sweep plus one wormhole run.
const (
	simBlocked     = 16
	packetCycles   = 20
	packetWarmup   = 5
	wormCycles     = 25
	wormWarmup     = 5
	replicasPerCPU = 2
	pinReplicas    = 8 // replicas pinned per seed in pinned.json
)

func genSim(seed int64, nproc int) *simInputs {
	r := streamRand(seed, purposeSim, 0)
	in := &simInputs{blocked: nonstraightLinks(r, simBlocked)}
	// The wormhole seed comes first, so it and the first replicas' seeds
	// do not depend on nproc.
	wormSeed := r.Int63()
	for i := 0; i < replicasPerCPU*nproc; i++ {
		in.packet = append(in.packet, simulator.Config{
			N: netSize, Policy: simulator.AdaptiveSSDT, Load: 0.6, QueueCap: 4,
			Cycles: packetCycles, Warmup: packetWarmup, Seed: r.Int63(),
			Traffic: simulator.Uniform,
		})
	}
	in.worm = wormhole.Config{
		N: netSize, Policy: simulator.AdaptiveSSDT, Load: 0.6,
		PacketFlits: 4, Lanes: 4, LaneDepth: 2,
		Cycles: wormCycles, Warmup: wormWarmup, Seed: wormSeed,
		Traffic: simulator.Uniform, IntraWorkers: nproc,
	}
	return in
}

func hashBatch(in *batchInputs) string {
	h := sha256.New()
	for _, client := range in.bodies {
		for _, body := range client {
			h.Write(body)
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashChurn(in *churnInputs) string {
	h := sha256.New()
	var buf [8]byte
	for c := range in.reqs {
		for _, s := range in.reqs[c] {
			h.Write([]byte(s.url))
			binary.LittleEndian.PutUint32(buf[:4], uint32(s.op))
			h.Write(buf[:4])
		}
		for _, op := range in.ops[c] {
			fmt.Fprintf(h, "p%d/%s/%t;", op.net, op.link.Spec(), op.repair)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashSim(in *simInputs) string {
	h := sha256.New()
	for _, l := range in.blocked {
		fmt.Fprintf(h, "%s;", l.Spec())
	}
	for _, c := range in.packet {
		fmt.Fprintf(h, "%+v;", c)
	}
	fmt.Fprintf(h, "%+v", in.worm)
	return hex.EncodeToString(h.Sum(nil)[:8])
}
