package shardnet

// fleet.go runs a coordinator together with a fixed fleet of workers in
// one process, and renders a shard fault plan as the workers' fault tap.
// A cross-machine coordinator runs alone and waits for whatever workers
// dial it; a fixed fleet knows when it is spent.

import (
	"errors"
	"sync"

	"pinscope/internal/faultinject"
)

// RunFleet runs coord to completion with workers in-process workers:
// run(i) is worker i's whole life, typically one RunWorker call. Once
// every worker has returned, no one is left to work the slices that
// remain, so the coordinator is drained (a no-op when the run is already
// complete) and the run fails instead of waiting for a worker that will
// not come. It returns the coordinator's stats, each worker's error
// (ErrWorkerKilled marks an injected death), and the coordinator's error,
// joined with the worker errors that explain it.
func RunFleet(coord *Coordinator, workers int, run func(i int) error) (*Stats, []error, error) {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run(i)
		}(i)
	}
	spent := make(chan struct{})
	go func() {
		defer close(spent)
		wg.Wait()
		coord.Drain()
	}()
	stats, err := coord.Run()
	<-spent
	if err != nil {
		werrs := []error{err}
		for _, e := range errs {
			if e != nil && !errors.Is(e, ErrWorkerKilled) {
				werrs = append(werrs, e)
			}
		}
		err = errors.Join(werrs...)
	}
	return stats, errs, err
}

// PlanFaults renders the worker-side families of a shard fault plan as a
// FaultTap for a coordinator whose lease TTL is ttl clock units:
//
//   - a ShardKill kills the holder right before it sends result
//     AfterResults, so exactly AfterResults frames of that lease reach
//     the coordinator intact;
//   - a LeaseExpiry stalls the holder for ttl+1 clock units before it
//     computes item AfterResults, past its lease TTL, so the lease
//     expires while the holder lives. A stall at AfterResults == Items
//     never fires: no item is left to consult the tap, so no one takes
//     over finished work.
//
// Each fires once per slice, like every faultinject member: the takeover
// of a slice does not die or stall again. The plan's Net family belongs
// to the simulated network (NewSimNet). A plan with neither kills nor
// expiries yields nil.
func PlanFaults(plan *faultinject.ShardPlan, ttl int64) func(slice, item int) Fault {
	if plan == nil || len(plan.Kills)+len(plan.Expiries) == 0 {
		return nil
	}
	var mu sync.Mutex
	stalled, killed := map[int]bool{}, map[int]bool{}
	return func(slice, item int) Fault {
		mu.Lock()
		defer mu.Unlock()
		if e := plan.ExpiryFor(slice); e != nil && e.AfterResults == item && !stalled[slice] {
			stalled[slice] = true
			return Fault{Stall: ttl + 1}
		}
		if k := plan.KillFor(slice); k != nil && k.AfterResults == item && !killed[slice] {
			killed[slice] = true
			return Fault{Kill: true, Torn: k.TornBytes}
		}
		return Fault{}
	}
}
