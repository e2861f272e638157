package simulator

import (
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

func baseConfig() Config {
	return Config{
		N:        8,
		Policy:   StaticC,
		Load:     0.3,
		QueueCap: 4,
		Cycles:   2000,
		Warmup:   200,
		Seed:     1,
		Traffic:  Uniform,
	}
}

func TestRunValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.N = 3 },
		func(c *Config) { c.Load = -0.1 },
		func(c *Config) { c.Load = 1.5 },
		func(c *Config) { c.QueueCap = 0 },
		func(c *Config) { c.Cycles = 0 },
		func(c *Config) { c.Traffic = PermutationTraffic; c.Perm = []int{0, 1} },
		func(c *Config) { c.Traffic = Hotspot; c.HotspotDest = 99 },
		// Perm entries out of [0, N) used to panic in the delivery sweep.
		func(c *Config) { c.Traffic = PermutationTraffic; c.Perm = []int{0, 1, 2, 3, 4, 5, 6, 8} },
		func(c *Config) { c.Traffic = PermutationTraffic; c.Perm = []int{0, 1, 2, 3, 4, 5, 6, -1} },
		// Repeated entries are not a permutation.
		func(c *Config) { c.Traffic = PermutationTraffic; c.Perm = []int{0, 0, 2, 3, 4, 5, 6, 7} },
		// HotspotFrac outside [0,1] was silently clamped by the Bernoulli
		// threshold.
		func(c *Config) { c.Traffic = Hotspot; c.HotspotFrac = -0.1 },
		func(c *Config) { c.Traffic = Hotspot; c.HotspotFrac = 1.5 },
		// Tornado at N=2 is pure self-traffic.
		func(c *Config) { c.N = 2; c.Traffic = Tornado },
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		// The exported Validate must agree with Run's acceptance.
		if err := Validate(cfg); err == nil {
			t.Errorf("case %d: Validate accepted a config Run rejects", i)
		}
	}
	good := []func(*Config){
		func(c *Config) {}, // the base config itself
		func(c *Config) { c.Traffic = Hotspot; c.HotspotFrac = 0 },
		func(c *Config) { c.Traffic = Hotspot; c.HotspotFrac = 1 },
		// HotspotFrac is ignored (not validated) for non-hotspot traffic.
		func(c *Config) { c.Traffic = Uniform; c.HotspotFrac = 7 },
		func(c *Config) { c.N = 4; c.Traffic = Tornado },
	}
	for i, mutate := range good {
		cfg := baseConfig()
		mutate(&cfg)
		if err := Validate(cfg); err != nil {
			t.Errorf("good case %d: Validate rejected: %v", i, err)
		}
		if _, err := Run(cfg); err != nil {
			t.Errorf("good case %d: Run rejected: %v", i, err)
		}
	}
}

func TestConservation(t *testing.T) {
	// Every injected packet is delivered, dropped, or still in flight;
	// with no blockages nothing is dropped.
	for _, pol := range []Policy{StaticC, RandomState, AdaptiveSSDT} {
		cfg := baseConfig()
		cfg.Policy = pol
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Dropped != 0 {
			t.Errorf("%v: dropped %d packets with no blockages", pol, m.Dropped)
		}
		if m.Delivered == 0 || m.Injected == 0 {
			t.Errorf("%v: nothing moved: %+v", pol, m)
		}
		inFlight := 3 * 8 * 3 * cfg.QueueCap // total buffer capacity bound
		if m.Delivered > m.Injected+inFlight {
			t.Errorf("%v: delivered %d > injected %d + capacity", pol, m.Delivered, m.Injected)
		}
		if m.Latency.N() != m.Delivered {
			t.Errorf("%v: latency samples %d != delivered %d", pol, m.Latency.N(), m.Delivered)
		}
		// Minimum latency is n-1 = 2 cycles (stage-0 buffer to delivery).
		if m.Delivered > 0 && m.Latency.Min() < 2 {
			t.Errorf("%v: impossible latency %v", pol, m.Latency.Min())
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = AdaptiveSSDT
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.Injected != b.Injected || a.MaxQueue != b.MaxQueue ||
		a.Latency.Mean() != b.Latency.Mean() {
		t.Errorf("same seed produced different runs: %+v vs %+v", a, b)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delivered == a.Delivered && c.Latency.Mean() == a.Latency.Mean() {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestPermutationTrafficDeliversToPerm(t *testing.T) {
	cfg := baseConfig()
	cfg.Traffic = PermutationTraffic
	cfg.Perm = []int{7, 6, 5, 4, 3, 2, 1, 0}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The simulator panics internally if a packet is ever delivered to the
	// wrong output (Theorem 3.1 assertion), so reaching here with
	// deliveries is the check.
	if m.Delivered == 0 {
		t.Error("no deliveries under permutation traffic")
	}
}

func TestHotspotSkew(t *testing.T) {
	cfg := baseConfig()
	cfg.Traffic = Hotspot
	cfg.HotspotDest = 0
	cfg.HotspotFrac = 0.5
	cfg.Load = 0.2
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 {
		t.Error("no deliveries under hotspot traffic")
	}
	// Hotspot congestion should produce higher latency than uniform at the
	// same load.
	uni := baseConfig()
	uni.Load = 0.2
	mu, err := Run(uni)
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency.Mean() < mu.Latency.Mean() {
		t.Logf("note: hotspot latency %.2f < uniform %.2f (load too low to congest)",
			m.Latency.Mean(), mu.Latency.Mean())
	}
}

func TestAdaptiveBalancesBetterThanStaticUnderLoad(t *testing.T) {
	// The paper's load-balancing claim, measured: at high load the
	// adaptive-SSDT policy should not be worse than static-C on p99
	// latency (it spreads the nonstraight traffic across both buffers).
	run := func(pol Policy) Metrics {
		cfg := baseConfig()
		cfg.N = 16
		cfg.Policy = pol
		cfg.Load = 0.7
		cfg.Cycles = 4000
		cfg.Warmup = 500
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	st := run(StaticC)
	ad := run(AdaptiveSSDT)
	if ad.Throughput < st.Throughput*0.95 {
		t.Errorf("adaptive throughput %.4f much worse than static %.4f", ad.Throughput, st.Throughput)
	}
	if ad.Latency.Percentile(99) > st.Latency.Percentile(99)*1.25 {
		t.Errorf("adaptive p99 %.1f much worse than static %.1f",
			ad.Latency.Percentile(99), st.Latency.Percentile(99))
	}
	t.Logf("static:   thr=%.4f lat=%s maxQ=%d", st.Throughput, st.Latency.String(), st.MaxQueue)
	t.Logf("adaptive: thr=%.4f lat=%s maxQ=%d", ad.Throughput, ad.Latency.String(), ad.MaxQueue)
}

func TestBlockedNonstraightStillDelivers(t *testing.T) {
	// With one nonstraight link blocked, the policies route around it via
	// the spare and deliver without drops.
	p := topology.MustParams(8)
	blk := blockage.NewSet(p)
	blk.Block(topology.Link{Stage: 1, From: 2, Kind: topology.Minus})
	cfg := baseConfig()
	cfg.Blocked = blk
	cfg.Policy = AdaptiveSSDT
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 0 {
		t.Errorf("dropped %d packets despite spare links", m.Dropped)
	}
	if m.Delivered == 0 {
		t.Error("no deliveries")
	}
}

func TestBlockedStraightDrops(t *testing.T) {
	// A blocked straight link forces drops for packets that need it.
	p := topology.MustParams(8)
	blk := blockage.NewSet(p)
	for j := 0; j < 8; j++ {
		blk.Block(topology.Link{Stage: 1, From: j, Kind: topology.Straight})
	}
	cfg := baseConfig()
	cfg.Blocked = blk
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped == 0 {
		t.Error("no drops despite blocked straight links")
	}
}

func TestQueueCapRespected(t *testing.T) {
	cfg := baseConfig()
	cfg.QueueCap = 2
	cfg.Load = 0.9
	cfg.Policy = StaticC
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxQueue > 2 {
		t.Errorf("MaxQueue = %d exceeds capacity 2", m.MaxQueue)
	}
	if m.Refused == 0 {
		t.Error("expected refused injections at load 0.9 with tiny buffers")
	}
}

func TestPolicyAndTrafficStrings(t *testing.T) {
	if StaticC.String() != "static-C" || RandomState.String() != "random-state" || AdaptiveSSDT.String() != "adaptive-SSDT" {
		t.Error("Policy strings wrong")
	}
	if Uniform.String() != "uniform" || Hotspot.String() != "hotspot" || PermutationTraffic.String() != "permutation" {
		t.Error("TrafficKind strings wrong")
	}
	if Policy(9).String() == "" || TrafficKind(9).String() == "" {
		t.Error("unknown enum Strings empty")
	}
}

func TestSingleInputModelThroughputCeiling(t *testing.T) {
	// IADM single-input switches must not beat Gamma crossbars, and under
	// hotspot congestion they should deliver strictly less.
	run := func(m SwitchModel) Metrics {
		cfg := baseConfig()
		cfg.Switches = m
		cfg.Load = 0.8
		cfg.Traffic = Hotspot
		cfg.HotspotDest = 0
		cfg.HotspotFrac = 0.5
		cfg.Cycles = 3000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cross := run(Crossbar)
	single := run(SingleInput)
	if single.Throughput > cross.Throughput*1.02 {
		t.Errorf("single-input throughput %.4f exceeds crossbar %.4f", single.Throughput, cross.Throughput)
	}
	t.Logf("crossbar thr=%.4f, single-input thr=%.4f", cross.Throughput, single.Throughput)
}

func TestSingleInputConservation(t *testing.T) {
	cfg := baseConfig()
	cfg.Switches = SingleInput
	cfg.Policy = AdaptiveSSDT
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 0 {
		t.Errorf("dropped %d with no blockages", m.Dropped)
	}
	if m.Delivered == 0 {
		t.Error("nothing delivered under single-input model")
	}
}

func TestTransientFaultsDropOrDeliver(t *testing.T) {
	cfg := baseConfig()
	cfg.FaultRate = 0.01
	cfg.RepairCycles = 20
	cfg.Policy = AdaptiveSSDT
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 {
		t.Error("no deliveries under transient faults")
	}
	// Conservation still holds: drops only happen when a needed link set
	// is fully failed.
	t.Logf("transient faults: delivered=%d dropped=%d", m.Delivered, m.Dropped)
}

func TestTransientFaultsAdaptiveDropsLess(t *testing.T) {
	// The adaptive policy can sidestep a failed nonstraight link (the
	// other sign still reaches the destination, Theorem 3.2), so it should
	// not drop more than static-C routing under the same fault process.
	run := func(pol Policy) Metrics {
		cfg := baseConfig()
		cfg.N = 16
		cfg.Policy = pol
		cfg.FaultRate = 0.02
		cfg.RepairCycles = 30
		cfg.Cycles = 4000
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	st := run(StaticC)
	ad := run(AdaptiveSSDT)
	rate := func(m Metrics) float64 {
		tot := m.Delivered + m.Dropped
		if tot == 0 {
			return 0
		}
		return float64(m.Dropped) / float64(tot)
	}
	if rate(ad) > rate(st)*1.1 {
		t.Errorf("adaptive drop rate %.4f much worse than static %.4f", rate(ad), rate(st))
	}
	t.Logf("drop rates: static=%.4f adaptive=%.4f", rate(st), rate(ad))
}

func TestFaultRateValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.FaultRate = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("accepted fault rate > 1")
	}
}

// TestTinyFaultRatesMatchFaultFree: a fault rate so small that 1-p
// rounds to 1 must behave like no faults at all (as the refsim oracle's
// zero threshold does), not fault every link on its first trial.
func TestTinyFaultRatesMatchFaultFree(t *testing.T) {
	cfg := Config{N: 64, Policy: AdaptiveSSDT, Load: 0.5, QueueCap: 4,
		Cycles: 200, Warmup: 20, Seed: 5, Traffic: Uniform, RepairCycles: 10}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Delivered == 0 {
		t.Fatal("fault-free baseline delivered nothing")
	}
	for _, p := range []float64{1e-20, 5e-324} {
		cfg.FaultRate = p
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(got, want) {
			t.Errorf("FaultRate %g: delivered %d dropped %d, want the fault-free %d and %d",
				p, got.Delivered, got.Dropped, want.Delivered, want.Dropped)
		}
	}
}

func TestSwitchModelString(t *testing.T) {
	if Crossbar.String() != "crossbar" || SingleInput.String() != "single-input" {
		t.Error("SwitchModel strings wrong")
	}
	if SwitchModel(9).String() == "" {
		t.Error("unknown SwitchModel empty")
	}
}

// TestLinkUtilizationMatchesAnalytic cross-validates the simulator against
// steady-state analysis: under uniform traffic at load L, straight links
// carry L/2 packets/cycle and nonstraight links L/4 on average; the
// adaptive and random policies spread the nonstraight load (small spread)
// while static-C concentrates it on one sign per switch (bimodal 0 / L/2,
// i.e. standard deviation comparable to the mean).
func TestLinkUtilizationMatchesAnalytic(t *testing.T) {
	const load = 0.4
	run := func(pol Policy) Metrics {
		cfg := baseConfig()
		cfg.N = 16
		cfg.Policy = pol
		cfg.Load = load
		cfg.Cycles = 8000
		cfg.Warmup = 1000
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, pol := range []Policy{StaticC, RandomState, AdaptiveSSDT} {
		m := run(pol)
		if got := m.UtilStraight.Mean(); got < load/2*0.9 || got > load/2*1.1 {
			t.Errorf("%v: straight utilization %.4f, analytic %.4f", pol, got, load/2)
		}
		if got := m.UtilNonstraight.Mean(); got < load/4*0.9 || got > load/4*1.1 {
			t.Errorf("%v: nonstraight utilization %.4f, analytic %.4f", pol, got, load/4)
		}
	}
	st := run(StaticC)
	rd := run(RandomState)
	ad := run(AdaptiveSSDT)
	// Static-C: one nonstraight link per switch carries ~L/2, the other 0:
	// spread approximately equal to the mean. Random-state: both carry
	// ~L/4: small spread. Adaptive sits between them at moderate load —
	// its queue-length rule breaks ties toward the state-C link, so the
	// balancing only engages when buffers actually differ (exactly the
	// behaviour the paper describes: balance *when both links are busy*).
	if st.UtilNonstraight.StdDev() < st.UtilNonstraight.Mean()*0.8 {
		t.Errorf("static nonstraight spread %.4f not bimodal (mean %.4f)",
			st.UtilNonstraight.StdDev(), st.UtilNonstraight.Mean())
	}
	if rd.UtilNonstraight.StdDev() > st.UtilNonstraight.StdDev()*0.5 {
		t.Errorf("random-state nonstraight spread %.4f not clearly below static %.4f",
			rd.UtilNonstraight.StdDev(), st.UtilNonstraight.StdDev())
	}
	if ad.UtilNonstraight.StdDev() > st.UtilNonstraight.StdDev()*1.05 {
		t.Errorf("adaptive nonstraight spread %.4f above static %.4f",
			ad.UtilNonstraight.StdDev(), st.UtilNonstraight.StdDev())
	}
	t.Logf("nonstraight util sd: static=%.4f random=%.4f adaptive=%.4f (means all ~%.3f)",
		st.UtilNonstraight.StdDev(), rd.UtilNonstraight.StdDev(),
		ad.UtilNonstraight.StdDev(), st.UtilNonstraight.Mean())
}

func TestFixedPatternTraffic(t *testing.T) {
	for _, kind := range []TrafficKind{BitComplementTraffic, Tornado} {
		cfg := baseConfig()
		cfg.Traffic = kind
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// Delivery correctness is asserted inside the simulator
		// (wrong-output panics); just require progress.
		if m.Delivered == 0 {
			t.Errorf("%v: no deliveries", kind)
		}
	}
	if BitComplementTraffic.String() != "bit-complement" || Tornado.String() != "tornado" {
		t.Error("traffic names wrong")
	}
}

func TestBurstySourcesReduceOfferedLoad(t *testing.T) {
	plain := baseConfig()
	plain.Cycles = 6000
	bursty := plain
	bursty.Bursty = true
	bursty.BurstOn = 10
	bursty.BurstOff = 10
	mp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Run(bursty)
	if err != nil {
		t.Fatal(err)
	}
	// Long-run offered load halves (on-fraction 0.5): injected counts
	// should reflect that within generous tolerance.
	ratio := float64(mb.Injected) / float64(mp.Injected)
	if ratio < 0.35 || ratio > 0.65 {
		t.Errorf("bursty injection ratio %.3f, want ~0.5", ratio)
	}
	if mb.Delivered == 0 {
		t.Error("bursty run delivered nothing")
	}
}

// TestLivenessUnderSaturation: the stage pipeline is acyclic and the
// output column always drains, so even at load 1.0 with tiny buffers the
// simulator keeps delivering (no deadlock).
func TestLivenessUnderSaturation(t *testing.T) {
	cfg := baseConfig()
	cfg.Load = 1.0
	cfg.QueueCap = 1
	cfg.Policy = AdaptiveSSDT
	cfg.Switches = SingleInput
	cfg.Cycles = 3000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered < 1000 {
		t.Errorf("only %d deliveries at saturation (deadlock?)", m.Delivered)
	}
}
