package detsim

// The purpose registry: every draw-purpose domain separator of both
// engines and both oracles, in one place. Each is an arbitrary odd 64-bit
// constant, pairwise distinct from every other (TestPurposeRegistry
// checks both). The values are part of the engines' RNG contract: an
// oracle and its engine make identical random decisions only because
// they draw under the same constants, and every golden depends on them,
// so a value here never changes.

// Packet engine (internal/simulator) draw sites, shared with its oracle
// internal/refsim.
const (
	PacketLoad      = 0xa0761d6478bd642f // per-source injection Bernoulli
	PacketDst       = 0xe7037ed1a0b428db // per-source uniform destination
	PacketHot       = 0x8ebc6af09c88c6e3 // per-source hotspot Bernoulli
	PacketRoute     = 0x589965cc75374cc3 // per-incoming-link random-state choice
	PacketRouteInj  = 0x1d8e4e27c47d124f // per-source random-state choice at stage 0
	PacketBurst     = 0xeb44accab455d165 // per-source on/off sojourn Bernoulli
	PacketBurstInit = 0x2f9be6cc5be4f095 // per-source initial burst state
)

// Wormhole engine (internal/wormhole) draw sites, shared with its oracle
// internal/refwh. Disjoint from the packet domain, so a wormhole run and
// a packet run on the same seed are statistically independent.
const (
	WormLoad     = 0x9b1f3a6d25c7e84b // per-source packet-start Bernoulli
	WormDst      = 0x6e3c89a5d1f0b72d // per-source uniform destination
	WormHot      = 0xc4a7e1925f36d80b // per-source hotspot Bernoulli
	WormRoute    = 0x71d5bc0e9a248f63 // per-lane random-state choice for in-flight heads
	WormRouteInj = 0x3f82d64b17c9ae05 // per-source random-state choice at injection
)

// Fault domains. The engines skip-sample a geometric chain (FaultChain);
// the oracles draw one Bernoulli per link per cycle. The draws differ, so
// each has a private domain that keeps it from aliasing a shared draw
// site, and fault configs are compared statistically.
const (
	PacketFaultSkip = 0x9e6c63d0a161fe15 // packet engine's fault skip-chain
	WormFaultSkip   = 0xe59a3d7c61b08f27 // wormhole engine's fault skip-chain
	RefsimFault     = 0x3c79ac492ba7b653 // refsim per-link-per-cycle fault Bernoulli
	RefwhFault      = 0x2b64f18ea9c53d07 // refwh per-link-per-cycle fault Bernoulli
)
