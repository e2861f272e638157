package routesvc

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// mapTagCache preserves the pre-flat-table cache (a sharded
// map[cacheKey]cacheEntry) verbatim as a differential oracle: the flat
// open-addressing store must be observably equivalent for any
// interleaving of put/get/sweep. It is also the
// baseline the footprint test and the map-vs-flat benchmarks measure
// against.
type mapTagCache struct {
	mask   uint64
	shards []mapCacheShard
}

type mapCacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]mapCacheEntry
}

type mapCacheEntry struct {
	tag   core.Tag
	epoch uint64
}

func newMapTagCache(shards int) *mapTagCache {
	if shards <= 0 {
		shards = defaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &mapTagCache{mask: uint64(n - 1), shards: make([]mapCacheShard, n)}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]mapCacheEntry)
	}
	return c
}

func (c *mapTagCache) get(k cacheKey, epoch uint64) (core.Tag, bool) {
	sh := &c.shards[k.hash()&c.mask]
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if !ok || e.epoch != epoch {
		return core.Tag{}, false
	}
	return e.tag, true
}

func (c *mapTagCache) put(k cacheKey, tag core.Tag, epoch uint64) {
	sh := &c.shards[k.hash()&c.mask]
	sh.mu.Lock()
	sh.m[k] = mapCacheEntry{tag: tag, epoch: epoch}
	sh.mu.Unlock()
}

func (c *mapTagCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

func (c *mapTagCache) sweep(epoch uint64) int {
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if e.epoch != epoch {
				delete(sh.m, k)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// cacheTagFor builds the tag a Service would cache under k: destination =
// k.dst, state bits derived from the salt.
func cacheTagFor(p topology.Params, k cacheKey, salt uint64) core.Tag {
	state := salt & (1<<uint(p.Stages()) - 1)
	return core.TagFromState(p, int(k.dst), state)
}

// TestCacheFlatMatchesMap drives the flat store and the preserved map
// implementation through an identical randomized schedule of puts, gets,
// epoch advances and sweeps — every get must agree, and len must track.
func TestCacheFlatMatchesMap(t *testing.T) {
	for _, N := range []int{8, 1024} {
		p := topology.MustParams(N)
		flat := newTagCache(4, p)
		ref := newMapTagCache(4)
		rng := rand.New(rand.NewSource(int64(42 + N)))
		epoch := uint64(0)
		for step := 0; step < 20000; step++ {
			k := cacheKey{src: int32(rng.Intn(N)), dst: int32(rng.Intn(N))}
			stamp := epoch
			switch op := rng.Intn(10); {
			case op < 4:
				tag := cacheTagFor(p, k, rng.Uint64())
				flat.put(k, tag, stamp)
				ref.put(k, tag, stamp)
			case op < 8:
				ft, fok := flat.get(k, stamp)
				rt, rok := ref.get(k, stamp)
				if fok != rok || ft != rt {
					t.Fatalf("N=%d step %d: flat get = (%v, %v), map get = (%v, %v)", N, step, ft, fok, rt, rok)
				}
				// A lookup at a wrong epoch must miss on both.
				ft, fok = flat.get(k, stamp+1)
				rt, rok = ref.get(k, stamp+1)
				if fok != rok || ft != rt {
					t.Fatalf("N=%d step %d: stale get disagrees: flat (%v, %v), map (%v, %v)", N, step, ft, fok, rt, rok)
				}
			case op == 8:
				epoch++
			default:
				fr := flat.sweep(epoch)
				rr := ref.sweep(epoch)
				if fr != rr {
					t.Fatalf("N=%d step %d: flat sweep removed %d, map %d", N, step, fr, rr)
				}
			}
			if step%1000 == 0 {
				if fl, rl := flat.len(), ref.len(); fl != rl {
					t.Fatalf("N=%d step %d: flat len %d, map len %d", N, step, fl, rl)
				}
			}
		}
	}
}

// TestCacheGrowth fills one shard far past its initial capacity and checks
// every entry survives the rehashes.
func TestCacheGrowth(t *testing.T) {
	N := 4096
	p := topology.MustParams(N)
	c := newTagCache(1, p)
	const M = 3000 // 46x the initial 64-slot table
	for i := 0; i < M; i++ {
		k := cacheKey{src: int32(i % N), dst: int32((i * 7) % N)}
		c.put(k, cacheTagFor(p, k, uint64(i)), 5)
	}
	if c.len() > M {
		t.Fatalf("len = %d, want <= %d", c.len(), M)
	}
	seen := 0
	for i := 0; i < M; i++ {
		k := cacheKey{src: int32(i % N), dst: int32((i * 7) % N)}
		tag, ok := c.get(k, 5)
		if !ok {
			t.Fatalf("entry %d lost after growth", i)
		}
		if tag.Destination() != int((i*7)%N) {
			t.Fatalf("entry %d decoded destination %d", i, tag.Destination())
		}
		seen++
	}
	// Load factor must respect the growth threshold in every shard.
	sh := &c.shards[0]
	if sh.used*loadDen > int(sh.slotMask+1)*loadNum {
		t.Fatalf("shard over threshold: %d used, %d slots", sh.used, sh.slotMask+1)
	}
	_ = seen
}

// TestCacheSweepShrinks pins the memory-reclaim behavior: after fault
// churn inflates the table with stale entries, sweep rebuilds shards
// sized for the survivors.
func TestCacheSweepShrinks(t *testing.T) {
	N := 4096
	p := topology.MustParams(N)
	c := newTagCache(1, p)
	for i := 0; i < 4000; i++ {
		k := cacheKey{src: int32(i % N), dst: int32((i * 13) % N)}
		c.put(k, cacheTagFor(p, k, uint64(i)), 1)
	}
	grown := c.memoryBytes()
	// Keep a handful of entries, live at epoch 2, that must survive.
	for d := 0; d < 10; d++ {
		k := cacheKey{src: int32(N - 1 - d), dst: int32(d)}
		c.put(k, cacheTagFor(p, k, 0), 2)
	}
	removed := c.sweep(2) // every epoch-1 entry is stale at epoch 2
	if removed != 4000 {
		t.Fatalf("sweep removed %d, want 4000", removed)
	}
	if c.len() != 10 {
		t.Fatalf("len after sweep = %d, want 10", c.len())
	}
	if after := c.memoryBytes(); after >= grown {
		t.Fatalf("sweep did not shrink the slab: %d -> %d bytes", grown, after)
	}
	for d := 0; d < 10; d++ {
		k := cacheKey{src: int32(N - 1 - d), dst: int32(d)}
		if _, ok := c.get(k, 2); !ok {
			t.Fatalf("live entry %d lost in sweep rebuild", d)
		}
	}
}

// TestCacheWideLayout exercises the two-word slot path (stages >= 16).
func TestCacheWideLayout(t *testing.T) {
	N := 1 << 16 // n = 16: first wide size
	p := topology.MustParams(N)
	c := newTagCache(2, p)
	if !c.layout.wide {
		t.Fatalf("layout for n=%d not wide", p.Stages())
	}
	rng := rand.New(rand.NewSource(3))
	type kv struct {
		k     cacheKey
		tag   core.Tag
		stamp uint64
	}
	var entries []kv
	for i := 0; i < 2000; i++ {
		k := cacheKey{src: int32(rng.Intn(N)), dst: int32(rng.Intn(N))}
		tag := cacheTagFor(p, k, rng.Uint64())
		c.put(k, tag, 9)
		entries = append(entries, kv{k, tag, 9})
	}
	for _, e := range entries {
		got, ok := c.get(e.k, e.stamp)
		if !ok || got != e.tag {
			t.Fatalf("wide get(%+v) = %v, %v; want %v", e.k, got, ok, e.tag)
		}
		if _, ok := c.get(e.k, e.stamp+1); ok {
			t.Fatal("wide stale get hit")
		}
	}
	live, stale, _ := c.snapshot(9)
	if live != c.len() || stale != 0 {
		t.Fatalf("stats = (%d, %d), len = %d", live, stale, c.len())
	}
	if removed := c.sweep(10); removed != len(entries) {
		t.Fatalf("wide sweep removed %d, want %d", removed, len(entries))
	}
}

// TestCacheStatsLiveStale pins the satellite fix: entries_live vs
// entries_stale are split by epoch stamp.
func TestCacheStatsLiveStale(t *testing.T) {
	p := topology.MustParams(64)
	c := newTagCache(2, p)
	for i := 0; i < 8; i++ {
		k := cacheKey{src: int32(i), dst: int32(i)}
		c.put(k, cacheTagFor(p, k, 7), 1)
	}
	for i := 0; i < 5; i++ {
		k := cacheKey{src: int32(i + 8), dst: int32(i)}
		c.put(k, cacheTagFor(p, k, 7), 2)
	}
	live, stale, _ := c.snapshot(2)
	if live != 5 || stale != 8 {
		t.Fatalf("snapshot(2) = (%d, %d), want (5, 8)", live, stale)
	}
	live, stale, _ = c.snapshot(1)
	if live != 8 || stale != 5 {
		t.Fatalf("snapshot(1) = (%d, %d), want (8, 5)", live, stale)
	}
	if c.len() != 13 {
		t.Fatalf("len = %d, want 13", c.len())
	}
}

// heapAllocBytes reports live heap after a double GC settles.
func heapAllocBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCacheFootprint is the acceptance gate in test form: at the same
// entry count and the same power-of-two capacity, the flat store must
// spend at least 4x fewer bytes per route than the preserved map cache.
// Both stores are built with one shard so the comparison is capacity-
// to-capacity (both land at 65536 slots for M = 13/16 * 65536 entries).
func TestCacheFootprint(t *testing.T) {
	N := 1024
	p := topology.MustParams(N)
	const capacity = 65536
	const M = capacity * loadNum / loadDen // fills to the growth threshold exactly

	keys := make([]cacheKey, M)
	for i := range keys {
		keys[i] = cacheKey{src: int32(i % N), dst: int32((i / N) % N)}
	}

	before := heapAllocBytes()
	flat := newTagCache(1, p)
	for i, k := range keys {
		flat.put(k, cacheTagFor(p, k, uint64(i)), 3)
	}
	flatBytes := heapAllocBytes() - before
	if flat.len() != M {
		t.Fatalf("flat len = %d, want %d", flat.len(), M)
	}
	if got := int(flat.shards[0].slotMask + 1); got != capacity {
		t.Fatalf("flat capacity = %d, want %d (test geometry drifted)", got, capacity)
	}
	// The accounted footprint must agree with the heap measurement.
	if acc := flat.memoryBytes(); flatBytes < acc || flatBytes > acc+acc/4 {
		t.Fatalf("heap says %d bytes, memoryBytes says %d", flatBytes, acc)
	}

	before = heapAllocBytes()
	ref := newMapTagCache(1)
	for i, k := range keys {
		ref.put(k, cacheTagFor(p, k, uint64(i)), 3)
	}
	mapBytes := heapAllocBytes() - before
	if ref.len() != M {
		t.Fatalf("map len = %d, want %d", ref.len(), M)
	}

	flatPer := float64(flatBytes) / float64(M)
	mapPer := float64(mapBytes) / float64(M)
	t.Logf("bytes/route: flat %.2f, map %.2f (%.1fx)", flatPer, mapPer, mapPer/flatPer)
	if mapPer < 4*flatPer {
		t.Fatalf("flat store not >=4x smaller: flat %.2f B/route, map %.2f B/route", flatPer, mapPer)
	}
	runtime.KeepAlive(flat)
	runtime.KeepAlive(ref)
}
