// Package multicast extends the paper's destination-tag routing from
// one-to-one to one-to-many delivery. The paper notes that each IADM
// switch "selects one of its three input links and connects it to one or
// more of its three output links" — the broadcast states it sets aside
// ("since this paper considers only one-to-one and permutation routing,
// broadcast states are not shown", Figure 1). This package uses those
// states: a message carries a destination set; at stage i a switch holding
// destinations whose i-th bits differ forks the message onto both the
// straight and the nonstraight output selected by its state, so one copy
// of the message serves every prefix-sharing destination.
//
// The tree structure follows from Lemma 2.1 exactly as in the unicast
// case: after stage i every branch sits on a switch whose low i+1 bits
// equal the shared prefix of its destination subset, so branches never
// converge and every switch in the tree forwards a single input — the
// broadcast states suffice, no extra buffering is needed.
package multicast

import (
	"fmt"
	"sort"

	"iadm/internal/bitutil"
	"iadm/internal/core"
	"iadm/internal/detsim"
	"iadm/internal/topology"
)

// Tree is a multicast routing tree: the links used per stage.
type Tree struct {
	p      topology.Params
	Source int
	Stages [][]topology.Link // Stages[i] = links used at stage i
}

// Params returns the network parameters of the tree.
func (t Tree) Params() topology.Params { return t.p }

// LinkCount returns the total number of links in the tree.
func (t Tree) LinkCount() int {
	total := 0
	for _, ls := range t.Stages {
		total += len(ls)
	}
	return total
}

// Destinations returns the sorted output-column switches the tree reaches.
func (t Tree) Destinations() []int {
	last := t.Stages[len(t.Stages)-1]
	out := make([]int, 0, len(last))
	for _, l := range last {
		out = append(out, l.To(t.p))
	}
	sort.Ints(out)
	return out
}

// Validate checks structural soundness: stage-by-stage connectivity (every
// stage-i link must depart from a switch some stage-(i-1) link arrives at,
// or from the source at stage 0) and the single-input property (no two
// links converge on one switch before the output column).
func (t Tree) Validate() error {
	if len(t.Stages) != t.p.Stages() {
		return fmt.Errorf("multicast: tree has %d stages, want %d", len(t.Stages), t.p.Stages())
	}
	reach := map[int]bool{t.Source: true}
	for i, ls := range t.Stages {
		if len(ls) == 0 {
			return fmt.Errorf("multicast: stage %d empty", i)
		}
		next := map[int]bool{}
		for _, l := range ls {
			if l.Stage != i {
				return fmt.Errorf("multicast: link %v in stage %d slot", l, i)
			}
			if !reach[l.From] {
				return fmt.Errorf("multicast: link %v departs from unreached switch", l)
			}
			to := l.To(t.p)
			if i < t.p.Stages()-1 && next[to] {
				return fmt.Errorf("multicast: two branches converge on %d∈S_%d", to, i+1)
			}
			next[to] = true
		}
		reach = next
	}
	return nil
}

// branch is a multicast frontier entry: a switch holding a copy of the
// message plus the contiguous [lo, hi) segment of the destination buffer
// it still serves.
type branch struct {
	at     int
	lo, hi int
}

// Route builds the multicast tree from source s to the destination set
// dests under the given network state (nil means all-C). Duplicate
// destinations are accepted and deduplicated.
//
// The frontier walk keeps every branch's destination subset as a segment
// of one shared buffer and splits segments by bit i into a second buffer
// (zeros first, then ones — the same order the original per-branch slices
// were appended), ping-ponging the two each stage. The convergence check
// uses stage-stamped generation counters instead of a per-stage map. The
// whole walk therefore costs a constant number of allocations regardless
// of fan-out, where the slice-of-slices original allocated per branch per
// stage.
func Route(p topology.Params, s int, dests []int, ns *core.NetworkState) (Tree, error) {
	if !p.ValidSwitch(s) {
		return Tree{}, fmt.Errorf("multicast: source %d out of range", s)
	}
	if len(dests) == 0 {
		return Tree{}, fmt.Errorf("multicast: empty destination set")
	}
	seen := make([]int32, p.Size()) // 0 = unseen; stage stamps start at 1
	uniq := make([]int, 0, len(dests))
	for _, d := range dests {
		if !p.ValidSwitch(d) {
			return Tree{}, fmt.Errorf("multicast: destination %d out of range", d)
		}
		if seen[d] == 0 {
			seen[d] = -1
			uniq = append(uniq, d)
		}
	}
	for _, d := range uniq {
		seen[d] = 0
	}
	sort.Ints(uniq)

	if ns == nil {
		ns = core.NewNetworkState(p)
	}
	tree := Tree{p: p, Source: s, Stages: make([][]topology.Link, p.Stages())}

	buf, nextBuf := uniq, make([]int, len(uniq))
	frontier := make([]branch, 0, len(uniq))
	next := make([]branch, 0, len(uniq))
	frontier = append(frontier, branch{at: s, lo: 0, hi: len(uniq)})
	for i := 0; i < p.Stages(); i++ {
		next = next[:0]
		at := 0 // write cursor into nextBuf
		stamp := int32(i + 1)
		for _, br := range frontier {
			// Stable-partition the branch's segment by bit i: zeros first.
			zlo := at
			for _, d := range buf[br.lo:br.hi] {
				if bitutil.Bit(uint64(d), i) == 0 {
					nextBuf[at] = d
					at++
				}
			}
			olo := at
			for _, d := range buf[br.lo:br.hi] {
				if bitutil.Bit(uint64(d), i) == 1 {
					nextBuf[at] = d
					at++
				}
			}
			for tb, seg := range [2][2]int{{zlo, olo}, {olo, at}} {
				if seg[0] == seg[1] {
					continue
				}
				l := core.LinkFor(i, br.at, tb, ns.Get(i, br.at))
				tree.Stages[i] = append(tree.Stages[i], l)
				to := l.To(p)
				if seen[to] == stamp {
					return Tree{}, fmt.Errorf("multicast: internal error: branches converge on %d∈S_%d", to, i+1)
				}
				seen[to] = stamp
				next = append(next, branch{at: to, lo: seg[0], hi: seg[1]})
			}
		}
		buf, nextBuf = nextBuf, buf
		frontier, next = next, frontier
	}
	return tree, nil
}

// UnicastLinkTotal returns the number of link traversals needed to reach
// the same destinations with separate unicast messages (shared links
// counted once per message) — the baseline the tree's sharing is measured
// against.
func UnicastLinkTotal(p topology.Params, s int, dests []int) int {
	set := map[int]bool{}
	for _, d := range dests {
		set[d] = true
	}
	return len(set) * p.Stages()
}

// Broadcast builds the full one-to-all tree.
func Broadcast(p topology.Params, s int, ns *core.NetworkState) (Tree, error) {
	all := make([]int, p.Size())
	for i := range all {
		all[i] = i
	}
	return Route(p, s, all, ns)
}

// BroadcastSweep builds the one-to-all tree from every source and returns
// the per-source link totals, fanning the N sources out over workers (0
// means GOMAXPROCS) goroutines. Each source writes only its own slot, so
// the result is identical for any worker count.
func BroadcastSweep(p topology.Params, ns *core.NetworkState, workers int) ([]int, error) {
	if ns == nil {
		ns = core.NewNetworkState(p)
	}
	counts := make([]int, p.Size())
	errs := make([]error, p.Size())
	detsim.Rows(p.Size(), workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			tree, err := Broadcast(p, s, ns)
			if err != nil {
				errs[s] = err
				continue
			}
			counts[s] = tree.LinkCount()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return counts, nil
}
