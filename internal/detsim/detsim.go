// Package detsim is the deterministic substrate shared by both simulation
// engines (internal/simulator, internal/wormhole) and their differential
// oracles (internal/refsim, internal/refwh): the counter hash every
// random draw goes through, the registry of draw-purpose constants, the
// geometric fault skip-chain, the batch runners (RunMany/Sweep), the
// row-sharded sweep (Rows), and the simcheck invariant switch.
//
// Randomness is counter-based: every draw is a pure function of (seed,
// cycle, entity, purpose) pushed through a splitmix64 finalizer, instead
// of a position in a sequential stream. A draw's value therefore depends
// on neither evaluation order nor worker, which makes sharded stepping
// bit-identical to sequential stepping and lets an oracle with entirely
// different scheduling re-derive every random decision. Policies that
// draw nothing (static-C, adaptive-SSDT) consume nothing, so enabling or
// disabling one draw site never perturbs another. The entity is a dense
// link or lane index for in-flight routing draws and the source index for
// injection-side draws; the purpose constants (purpose.go) keep those id
// spaces, and every draw site, in disjoint hash domains.
package detsim

import "math"

// mix64 is the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014):
// a full-avalanche 64-bit permutation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// RNG is the counter-based generator: stateless apart from the seed.
type RNG struct {
	seed uint64
}

// NewRNG returns the generator of one run.
func NewRNG(seed int64) RNG { return RNG{seed: uint64(seed)} }

// Word returns 64 uniformly random bits for the draw identified by
// (cycle, entity, purpose). Cycle and entity are spread by distinct odd
// multipliers before mixing (a bare XOR of two small integers would
// collide constantly: 1^2 == 3^0), and two finalizer rounds give full
// avalanche over the structured input. Word, Intn, Bit and Hit are kept
// within the compiler's inlining budget, so a draw in an engine's hot
// loop costs no call.
func (r RNG) Word(cycle, entity, purpose uint64) uint64 {
	z := mix64((r.seed ^ purpose) + cycle*0x9e3779b97f4a7c15 + entity*0xd1b54a32d192ed03)
	return mix64(z + 0x9e3779b97f4a7c15)
}

// Intn returns a uniform value in [0, mask+1) for mask+1 a power of two.
func (r RNG) Intn(mask, cycle, entity, purpose uint64) int {
	return int(r.Word(cycle, entity, purpose) & mask)
}

// Bit returns a fair coin flip.
func (r RNG) Bit(cycle, entity, purpose uint64) bool {
	return r.Word(cycle, entity, purpose)&1 == 0
}

// Hit reports one Bernoulli draw against a BernoulliThreshold.
func (r RNG) Hit(t, cycle, entity, purpose uint64) bool {
	return r.Word(cycle, entity, purpose) < t
}

// BernoulliThreshold converts a probability into an integer threshold t
// such that Word() < t holds with probability p, so per-cycle Bernoulli
// draws in the hot loop are a single integer compare instead of a float
// conversion. p >= 1 maps to MaxUint64 (a miss then has probability 2^-64,
// i.e. it will not occur within any feasible simulation length).
func BernoulliThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(1<<63) * 2)
}

// invLn1m returns 1/ln(1-p), the scale of geometric skip sampling, with
// p >= 1 signalled by 0 (every trial hits). When 1-p rounds to 1 the
// direct form would be 1/ln(1) = +Inf; Log1p keeps the sign and the
// magnitude, so tiny rates give huge (or -Inf) scales, which
// geometricSkipFromWord saturates to "no further success".
func invLn1m(p float64) float64 {
	if p >= 1 {
		return 0
	}
	if 1-p == 1 {
		return 1 / math.Log1p(-p)
	}
	return 1 / math.Log(1-p)
}

// geometricSkipFromWord draws the number of Bernoulli(p) trials up to and
// including the next success from 64 uniform bits, via inversion:
// 1 + floor(ln U / ln(1-p)). invLn1mP must be 1/ln(1-p); p >= 1 is
// signalled by invLn1mP == 0 and yields a skip of 1 (every trial hits).
// A skip that does not fit an int64, or is NaN (U == 1 against an
// infinite scale), saturates to MaxInt64: no further success.
func geometricSkipFromWord(u uint64, invLn1mP float64) int64 {
	if invLn1mP == 0 {
		return 1
	}
	unit := (float64(u>>11) + 1) * (1.0 / (1 << 53)) // uniform in (0, 1]
	x := math.Log(unit) * invLn1mP                   // >= 0, or NaN
	if !(x < 1<<63) {
		return math.MaxInt64
	}
	return int64(x) + 1
}

// FaultChain is the transient-fault injector both engines share. Instead
// of one Bernoulli(p) draw per link per cycle, the flattened
// (cycle*links + link) trial sequence is skip-sampled geometrically, so
// the expected cost is p*links per cycle rather than links. Each skip
// draw is keyed by the trial position it starts from, so the fault
// pattern is a pure function of the seed, independent of worker count
// and of every other draw site.
type FaultChain struct {
	invLn   float64 // 1/ln(1-p); 0 when p >= 1
	purpose uint64
	next    int64 // the next trial position that hits
}

// NewFaultChain returns the chain for per-link, per-cycle failure
// probability p, drawing under purpose.
func NewFaultChain(p float64, purpose uint64) FaultChain {
	return FaultChain{invLn: invLn1m(p), purpose: purpose}
}

// Reset rewinds the chain to before trial 0 under a run's generator.
func (c *FaultChain) Reset(r RNG) { c.next = c.advance(r, -1) }

// advance walks one step from trial position pos (-1 before the first
// trial) to the next position whose trial hits, saturating at MaxInt64.
func (c *FaultChain) advance(r RNG, pos int64) int64 {
	skip := geometricSkipFromWord(r.Word(uint64(pos+1), 0, c.purpose), c.invLn)
	if skip > math.MaxInt64-1-pos {
		return math.MaxInt64
	}
	return pos + skip
}

// Step injects one cycle's failures: every hit trial fails its link for
// repair cycles, recorded as failUntil[link], the first cycle at which
// the link works again. Trials landing on an already-failed link are
// discarded, which leaves every working link failing with exactly p per
// cycle.
func (c *FaultChain) Step(r RNG, cycle, repair int, failUntil []int32) {
	start := int64(cycle) * int64(len(failUntil))
	end := start + int64(len(failUntil))
	for c.next < end {
		idx := int(c.next - start)
		if int(failUntil[idx]) <= cycle {
			failUntil[idx] = int32(cycle + repair)
		}
		c.next = c.advance(r, c.next)
	}
}
