package fleet

import (
	"net/http"
	"time"

	"iadm/internal/routesvc"
)

// routeOne proxies a single route request to the replica owning its
// (net, src, dst) key, hedging to the next replica after cfg.HedgeAfter
// and retrying retryable failures under the router-wide retry budget.
func (rt *Router) routeOne(w http.ResponseWriter, r *http.Request) {
	in, err := routesvc.ReadRouteRequest(r)
	if err != nil {
		routesvc.WriteError(w, http.StatusBadRequest, err.Error(), "invalid", 0)
		return
	}
	_, set := rt.ring.Owner(in.Net, in.Src, in.Dst)
	ownerPos := int(keyHash(in.Src, in.Dst) % uint64(len(set)))
	rt.budget.note()
	out, err := rt.sendRoute(set, ownerPos, in)
	if err != nil {
		rt.proxyErr(w, err)
		return
	}
	routesvc.WriteRoute(w, &out)
}

// sendRoute runs the hedged/retried single-route send. Replica rank k is
// set[(ownerPos+k) % len(set)]: the owner first, then the partition's
// other replicas in ring order. At most len(set) attempts are ever in
// flight, so the reply channel never blocks a loser goroutine.
func (rt *Router) sendRoute(set []int, ownerPos int, in routesvc.RouteJSON) (routesvc.RouteJSON, error) {
	type reply struct {
		out routesvc.RouteJSON
		err error
	}
	ch := make(chan reply, len(set))
	send := func(rank int, hedge, retry bool, delay time.Duration) {
		bk := rt.bks[set[(ownerPos+rank)%len(set)]]
		if hedge {
			bk.hedged.Add(1)
		}
		if retry {
			bk.retried.Add(1)
		}
		go func() {
			if delay > 0 {
				time.Sleep(delay)
			}
			bk.reqs.Add(1)
			out, err := bk.client.RouteWire(in)
			bk.observe(err)
			ch <- reply{out, err}
		}()
	}

	send(0, false, false, 0)
	launched, nextRank := 1, 1
	var hedgeT <-chan time.Time
	if rt.cfg.HedgeAfter > 0 && len(set) > 1 {
		hedgeT = time.After(rt.cfg.HedgeAfter)
	}
	var lastErr error
	for launched > 0 {
		select {
		case rep := <-ch:
			launched--
			if rep.err == nil {
				return rep.out, nil
			}
			lastErr = rep.err
			// A failed attempt retries against the next untried replica,
			// budget permitting, with a small linear backoff so a brown-out
			// is not met with an instant second volley.
			if retryable(rep.err) && nextRank < len(set) && rt.budget.allow() {
				send(nextRank, false, true, time.Duration(nextRank)*2*time.Millisecond)
				nextRank++
				launched++
			}
		case <-hedgeT:
			hedgeT = nil
			if nextRank < len(set) {
				rt.hedges.Add(1)
				send(nextRank, true, false, 0)
				nextRank++
				launched++
			}
		}
	}
	return routesvc.RouteJSON{}, lastErr
}
