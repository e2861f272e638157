package main

import (
	"fmt"

	"iadm/internal/core"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// The serving oracle checks every distinct served route with core alone,
// after the timed phase:
//
//   - an SSDT tag followed from its source reaches the destination
//     (Theorem 3.1, whatever the blockage map);
//   - a TSDT tag's path reaches the destination and avoids every link that
//     was blocked at the epoch stamped on the response (Theorem 3.2), as
//     recorded in the partition's ledger from acked mutations.

// verifyRoute checks one served route against the blocked-set history of
// its partition.
func verifyRoute(p topology.Params, it item, tag core.Tag, epoch uint64, sets [][]topology.Link) error {
	if epoch >= uint64(len(sets)) {
		return fmt.Errorf("epoch %d was never acked (last acked %d)", epoch, len(sets)-1)
	}
	if tag.Destination() != it.dst {
		return fmt.Errorf("tag %v addresses %d", tag, tag.Destination())
	}
	path := tag.Follow(p, it.src)
	if d := path.Destination(); d != it.dst {
		return fmt.Errorf("tag %v from %d reaches %d", tag, it.src, d)
	}
	if it.scheme == routesvc.SchemeSSDT {
		return nil
	}
	for _, l := range path.Links {
		for _, b := range sets[epoch] {
			if l == b {
				return fmt.Errorf("tag %v uses %s, blocked at epoch %d", tag, l.Spec(), epoch)
			}
		}
	}
	return nil
}

// oracleResult tallies the oracle's verdicts.
type oracleResult struct {
	checked, violations int
	errs                []string
}

func (o *oracleResult) note(err error, where string) {
	o.checked++
	if err == nil {
		return
	}
	o.violations++
	if len(o.errs) < 4 {
		o.errs = append(o.errs, where+": "+err.Error())
	}
}

// verifyBatch checks batch-direct, whose single partition never mutates:
// every route must be valid at epoch 0.
func verifyBatch(p topology.Params, in *batchInputs, clients []*client) oracleResult {
	var o oracleResult
	sets := [][]topology.Link{nil}
	for c, cl := range clients {
		cl.answers.each(func(r served) {
			it := in.items[c][r.pos][r.item]
			tag, epoch := unpackServed(p, r.packed)
			o.note(verifyRoute(p, it, tag, epoch, sets), fmt.Sprintf("client %d batch %d item %d", c, r.pos, r.item))
		})
	}
	return o
}

// verifyChurn checks routed-churn against each partition's ledger; a
// mutation whose replicas acked diverging epochs is a violation too.
func verifyChurn(p topology.Params, in *churnInputs, clients []*client, ledgers []*ledger) oracleResult {
	var o oracleResult
	for net, lg := range ledgers {
		for i := 0; i < lg.diverged; i++ {
			o.note(fmt.Errorf("replica epochs diverged"), fmt.Sprintf("p%d", net))
		}
	}
	for c, cl := range clients {
		cl.answers.each(func(r served) {
			s := in.reqs[c][r.pos]
			tag, epoch := unpackServed(p, r.packed)
			o.note(verifyRoute(p, s.item, tag, epoch, ledgers[s.net].sets), fmt.Sprintf("client %d request %d (p%d)", c, r.pos, s.net))
		})
	}
	return o
}
