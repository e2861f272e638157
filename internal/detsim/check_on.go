//go:build simcheck

package detsim

// Invariants is true under the simcheck build tag: every engine run in
// the process re-verifies its conservation and queue-state invariants
// after each cycle, and Rows re-verifies its shard tiling. `make race`
// runs the full test suite this way.
const Invariants = true
