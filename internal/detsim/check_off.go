//go:build !simcheck

package detsim

// Invariants is false in normal builds: the engines' per-cycle invariant
// checkers cost O(links) per cycle and stay out of production and
// benchmark runs. Build with -tags simcheck to default them on.
const Invariants = false
