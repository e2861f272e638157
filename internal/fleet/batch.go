package fleet

import (
	"fmt"
	"net/http"
	"sync"

	"iadm/internal/routesvc"
)

// ownerAt returns the backend holding replica `rank` of the item's key:
// rank 0 is the cache-affinity owner, higher ranks the partition's other
// replicas in ring order (used by the batch retry round).
func (rt *Router) ownerAt(rq *routesvc.RouteJSON, rank int) int {
	set := rt.ring.ReplicaSet(rq.Net)
	return set[(keyHash(rq.Src, rq.Dst)+uint64(rank))%uint64(len(set))]
}

// group buckets the item indices in idx by their rank-th replica owner,
// preserving input order inside every bucket so each backend receives a
// dense, ordered sub-batch for its 64-lane sliced kernels.
func (rt *Router) group(reqs []routesvc.RouteJSON, idx []int, rank int) [][]int {
	groups := make([][]int, len(rt.bks))
	for _, i := range idx {
		b := rt.ownerAt(&reqs[i], rank)
		groups[b] = append(groups[b], i)
	}
	return groups
}

// fanout sends every non-empty group to its backend concurrently and
// places each sub-response's items into out at their original indices.
// It returns the indices whose sub-batch failed outright (the per-item
// slots left unset), the highest epoch any backend reported, and the
// last sub-batch error.
func (rt *Router) fanout(reqs []routesvc.RouteJSON, groups [][]int, out []routesvc.RouteJSON, asRetry bool) (failed []int, epoch uint64, lastErr error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for b, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		rt.subs.Add(1)
		wg.Add(1)
		go func(b int, idx []int) {
			defer wg.Done()
			sub := make([]routesvc.RouteJSON, len(idx))
			for k, i := range idx {
				sub[k] = reqs[i]
			}
			bk := rt.bks[b]
			bk.reqs.Add(1)
			if asRetry {
				bk.retried.Add(1)
			}
			resp, err := bk.client.RouteBatch(sub)
			bk.observe(err)
			if err == nil && len(resp.Responses) != len(idx) {
				err = fmt.Errorf("fleet: backend %s answered %d items for %d requests",
					bk.base, len(resp.Responses), len(idx))
				bk.errs.Add(1)
			}
			if err != nil {
				mu.Lock()
				failed = append(failed, idx...)
				lastErr = err
				mu.Unlock()
				return
			}
			// Indices in idx are disjoint across groups, so the splice
			// below is race-free without the mutex.
			for k, i := range idx {
				out[i] = resp.Responses[k]
			}
			mu.Lock()
			if resp.Epoch > epoch {
				epoch = resp.Epoch
			}
			mu.Unlock()
		}(b, idx)
	}
	wg.Wait()
	return failed, epoch, lastErr
}

// routeBatch is the scatter-gather batch path: split the incoming batch
// by owning backend, fan the sub-batches out concurrently, put the
// responses back in input order. A sub-batch whose backend fails
// outright gets one retry round against each item's next replica (under
// the retry budget); items still unserved answer per-item errors, so one
// dead backend degrades 1/K of a batch instead of failing it whole.
func (rt *Router) routeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		routesvc.WriteError(w, http.StatusBadRequest, "method "+r.Method, "invalid", 0)
		return
	}
	var in routesvc.BatchJSON
	if err := routesvc.ReadBatch(r.Body, &in); err != nil {
		routesvc.WriteError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "invalid", 0)
		return
	}
	rt.batches.Add(1)
	rt.budget.note()
	out := make([]routesvc.RouteJSON, len(in.Requests))
	all := make([]int, len(in.Requests))
	for i := range all {
		all[i] = i
	}
	failed, epoch, ferr := rt.fanout(in.Requests, rt.group(in.Requests, all, 0), out, false)
	if len(failed) > 0 && rt.ring.Replicas() > 1 && retryable(ferr) && rt.budget.allow() {
		var ep2 uint64
		failed, ep2, ferr = rt.fanout(in.Requests, rt.group(in.Requests, failed, 1), out, true)
		if ep2 > epoch {
			epoch = ep2
		}
	}
	for _, i := range failed {
		rq := in.Requests[i]
		out[i] = routesvc.RouteJSON{
			Net: rq.Net, Src: rq.Src, Dst: rq.Dst, Scheme: rq.Scheme,
			Error: ferr.Error(), Code: "backend",
		}
	}
	routesvc.WriteBatch(w, &routesvc.BatchJSON{Responses: out, Epoch: epoch})
}
