package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"iadm/internal/routesvc"
)

// mutateAttempts and mutateBackoff bound the per-replica delivery of a
// fault/repair report: a replica that cannot be reached after these
// retries fails the whole fan-out (see below).
const (
	mutateAttempts = 3
	mutateBackoff  = 5 * time.Millisecond
)

// MutateAck is one replica's acknowledgement of a fault/repair fan-out:
// the epoch its blockage-map bump produced (proof the replica will no
// longer serve tags computed under the old map — Theorem 3.2's
// invalidation, now end-to-end) and how many delivery attempts it took.
type MutateAck struct {
	Backend  string `json:"backend"`
	Epoch    uint64 `json:"epoch"`
	Attempts int    `json:"attempts"`
}

// FleetMutateJSON is the router's /fault and /repair response: the
// per-replica acks plus the usual mutate summary (Changed/Blocked from
// the replicas — they apply identical reports to identical maps, so the
// values agree).
type FleetMutateJSON struct {
	Net      string      `json:"net,omitempty"`
	Changed  int         `json:"changed"`
	Blocked  int         `json:"blocked"`
	Epoch    uint64      `json:"epoch"` // max acked epoch
	Replicas int         `json:"replicas"`
	Acks     []MutateAck `json:"acks"`
}

func (rt *Router) fault(w http.ResponseWriter, r *http.Request)  { rt.mutate(w, r, "/fault") }
func (rt *Router) repair(w http.ResponseWriter, r *http.Request) { rt.mutate(w, r, "/repair") }

// mutate fans a fault/repair report out to EVERY replica of the affected
// partition, concurrently, each with bounded retries. All replicas must
// ack (with their epoch bump) for the router to answer 200: a partial
// fan-out would leave some replica serving pre-fault TSDT tags, so it is
// reported as 502 and the client must retry — the reports are idempotent
// set operations, so re-delivery to an already-acked replica is safe.
func (rt *Router) mutate(w http.ResponseWriter, r *http.Request, path string) {
	if r.Method != http.MethodPost {
		routesvc.WriteError(w, http.StatusBadRequest, "method "+r.Method, "invalid", 0)
		return
	}
	var in routesvc.MutateJSON
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		routesvc.WriteError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "invalid", 0)
		return
	}
	set := rt.ring.ReplicaSet(in.Net)
	out := FleetMutateJSON{Net: in.Net, Replicas: len(set), Acks: make([]MutateAck, len(set))}
	errs := make([]error, len(set))
	var wg sync.WaitGroup
	for k, b := range set {
		wg.Add(1)
		go func(k, b int) {
			defer wg.Done()
			bk := rt.bks[b]
			var lastErr error
			for attempt := 1; attempt <= mutateAttempts; attempt++ {
				if attempt > 1 {
					time.Sleep(time.Duration(attempt-1) * mutateBackoff)
					bk.retried.Add(1)
				}
				bk.reqs.Add(1)
				var resp routesvc.MutateJSON
				err := bk.client.PostJSON(path, routesvc.MutateJSON{
					Net: in.Net, Links: in.Links, Switches: in.Switches,
				}, &resp)
				bk.observe(err)
				if err == nil {
					out.Acks[k] = MutateAck{Backend: bk.base, Epoch: resp.Epoch, Attempts: attempt}
					// Changed/Blocked agree across replicas; keep slot 0's.
					if k == 0 {
						out.Changed, out.Blocked = resp.Changed, resp.Blocked
					}
					return
				}
				lastErr = err
				if !retryable(err) {
					break
				}
			}
			errs[k] = lastErr
		}(k, b)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			routesvc.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("fleet: %s fan-out to replica %s failed: %v", path, rt.bks[set[k]].base, err),
				"backend", 0)
			return
		}
		if out.Acks[k].Epoch > out.Epoch {
			out.Epoch = out.Acks[k].Epoch
		}
	}
	routesvc.WriteJSON(w, http.StatusOK, out)
}
