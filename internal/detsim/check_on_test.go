//go:build simcheck

package detsim

import "testing"

// TestInvariantCheckerOnUnderSimcheck: the simcheck build tag arms the
// engines' per-cycle invariant checkers and Rows' shard-tiling check.
func TestInvariantCheckerOnUnderSimcheck(t *testing.T) {
	if !Invariants {
		t.Fatal("invariant checkers not armed under the simcheck tag")
	}
}
