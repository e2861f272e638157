package detsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"testing"
)

// TestWordKnownAnswers pins the counter hash to literal outputs. Both
// engines and both oracles draw through Word, so this is the guard
// against a silent hash change: any edit to mix64, the multipliers or
// the mixing order moves every golden and pinned statistic at once, and
// fails here first with a precise diff.
func TestWordKnownAnswers(t *testing.T) {
	cases := []struct {
		seed                   uint64
		cycle, entity, purpose uint64
		want                   uint64
	}{
		{0x0, 0, 0, PacketLoad, 0x0175dd281161e2b6},
		{0x1, 2, 3, PacketRoute, 0x0f09d93c9eb14941},
		{0xfffffffffffffff9, 1 << 40, 1023, PacketFaultSkip, 0x7bf37ad5e561a41f},
		{0xdeadbeef, 99999, 4095, WormRoute, 0x81d4ba0d53ec3380},
		{0x2a, 0, 0, RefsimFault, 0xc72db6aa72056f84},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64, RefwhFault, 0x6416046b41f5f014},
	}
	for _, c := range cases {
		r := NewRNG(int64(c.seed))
		if got := r.Word(c.cycle, c.entity, c.purpose); got != c.want {
			t.Errorf("Word(seed %#x, %d, %d, %#x) = %#016x, want %#016x",
				c.seed, c.cycle, c.entity, c.purpose, got, c.want)
		}
	}
	if got := mix64(1); got != 6238072747940578789 {
		t.Errorf("mix64(1) = %d", got)
	}
}

// TestDerivedDraws checks Intn/Bit/Hit against Word and the threshold
// conventions at the edges.
func TestDerivedDraws(t *testing.T) {
	r := NewRNG(7)
	for c := uint64(0); c < 200; c++ {
		w := r.Word(c, 3, PacketDst)
		if r.Intn(63, c, 3, PacketDst) != int(w&63) {
			t.Fatal("Intn is not the masked Word")
		}
		if r.Bit(c, 3, PacketDst) != (w&1 == 0) {
			t.Fatal("Bit is not the low bit of Word")
		}
		if r.Hit(BernoulliThreshold(0), c, 3, PacketDst) {
			t.Fatal("p=0 hit")
		}
		if !r.Hit(BernoulliThreshold(1), c, 3, PacketDst) && w != math.MaxUint64 {
			t.Fatal("p=1 missed")
		}
	}
	if got := BernoulliThreshold(0.6); got != 11068046444225730560 {
		t.Errorf("BernoulliThreshold(0.6) = %d", got)
	}
}

// TestPurposeRegistry asserts every purpose constant in purpose.go is odd
// and distinct from every other across the packet, wormhole and
// oracle-only domains. It reads the constants from the source, so a
// constant added later is covered without touching this test.
func TestPurposeRegistry(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "purpose.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a literal", name.Name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 64)
				if err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
				if v&1 == 0 {
					t.Errorf("%s = %#x is even", name.Name, v)
				}
				if prev, dup := seen[v]; dup {
					t.Errorf("%s and %s share %#x", name.Name, prev, v)
				}
				seen[v] = name.Name
			}
		}
	}
	if len(seen) != 16 {
		t.Errorf("registry holds %d purposes, want 16 (7 packet, 5 wormhole, 4 fault)", len(seen))
	}
}

// TestTinyFaultRatesNeverFault: a rate so small that 1-p rounds to 1
// must behave like p == 0 (no fault in any feasible run), not like
// p == 1. Before the Log1p fallback and the skip saturation, every such
// chain faulted on its first trial.
func TestTinyFaultRatesNeverFault(t *testing.T) {
	for _, p := range []float64{1e-17, 1e-20, 5e-324} {
		c := NewFaultChain(p, PacketFaultSkip)
		failUntil := make([]int32, 3*64*6)
		for seed := int64(0); seed < 20; seed++ {
			r := NewRNG(seed)
			c.Reset(r)
			for cycle := 0; cycle < 100; cycle++ {
				c.Step(r, cycle, 5, failUntil)
			}
		}
		for idx, u := range failUntil {
			if u != 0 {
				t.Fatalf("p=%g: link %d failed", p, idx)
			}
		}
	}
	// U == 1 against an infinite scale is NaN; anything short of U == 1
	// against a huge finite scale overflows int64. Both saturate.
	for _, c := range []struct {
		u   uint64
		inv float64
	}{{0, math.Inf(-1)}, {math.MaxUint64, math.Inf(-1)}, {0, -1e300}, {1 << 40, -1e300}} {
		if got := geometricSkipFromWord(c.u, c.inv); got != math.MaxInt64 {
			t.Errorf("geometricSkipFromWord(%#x, %g) = %d, want saturation", c.u, c.inv, got)
		}
	}
}

// TestFaultChainRate: a moderate rate faults at about p per link-cycle
// (a working link fails with exactly p; already-failed links absorb
// their hits), and p = 1 fails every link every time it is up.
func TestFaultChainRate(t *testing.T) {
	const links, cycles, p = 300, 2000, 0.01
	c := NewFaultChain(p, PacketFaultSkip)
	r := NewRNG(3)
	c.Reset(r)
	failUntil := make([]int32, links)
	fails := 0
	for cycle := 0; cycle < cycles; cycle++ {
		c.Step(r, cycle, 1, failUntil) // a failure lasts one cycle
		for _, u := range failUntil {
			if int(u) > cycle {
				fails++
			}
		}
	}
	rate := float64(fails) / (links * cycles)
	if math.Abs(rate-p) > 0.001 {
		t.Errorf("fault rate %v, want ~%v", rate, p)
	}
	all := NewFaultChain(1, PacketFaultSkip)
	all.Reset(r)
	for i := range failUntil {
		failUntil[i] = 0
	}
	all.Step(r, 0, 1, failUntil)
	for idx, u := range failUntil {
		if u != 1 {
			t.Fatalf("p=1: link %d not failed", idx)
		}
	}
}
