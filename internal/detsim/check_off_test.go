//go:build !simcheck

package detsim

import "testing"

// TestInvariantCheckerOffByDefault documents that the engines' per-cycle
// invariant checkers are opt-in, not a tax on the hot path: without the
// simcheck build tag the switch both engines snapshot at run start is
// off.
func TestInvariantCheckerOffByDefault(t *testing.T) {
	if Invariants {
		t.Fatal("invariant checkers armed in a build without the simcheck tag")
	}
}
