// Package shard is the task pool behind every parallel fan-out of
// independent event streams — the experiment sweep's (shrink, scheduler,
// set) cells and sim.RunParallel's simulation replicas. It exists so the
// repo has exactly one answer to "run n independent tasks on w cores
// deterministically".
//
// The pool is deterministic by construction: tasks are identified by
// their index in [0, n), every task runs exactly once, and a caller that
// writes task i's result into slot i of a pre-sized slice obtains output
// that is byte-identical for every worker count — scheduling decides only
// *when* a task runs, never *what* it computes or where its result lands.
//
// Work distribution is one shared claim counter: each worker takes the
// next unclaimed index when it finishes its last task. A long task never
// strands work behind it — the other workers simply keep claiming — so an
// uneven sweep finishes in the time of its slowest single task plus an
// even share of the rest. Tasks are whole simulations, so one atomic add
// per task is noise.
package shard

import (
	"sync"
	"sync/atomic"
)

// Run executes task(0) … task(n-1) exactly once each over min(workers, n)
// goroutines (workers <= 0 means 1). The first failure observed stops
// every worker from claiming further tasks; among the failures that did
// occur, the one with the smallest task index is returned, so the
// reported error does not depend on goroutine timing when several tasks
// fail in one run. Tasks already started when the failure occurs run to
// completion.
//
// With workers == 1 the tasks run on the calling goroutine in index
// order, with no goroutines spawned.
func Run(workers, n int, task func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next      atomic.Int64 // the next unclaimed index
		cancelled atomic.Bool
		mu        sync.Mutex
		failIdx   = -1
		failure   error
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !cancelled.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := task(i); err != nil {
					mu.Lock()
					if failIdx < 0 || i < failIdx {
						failIdx, failure = i, err
					}
					mu.Unlock()
					cancelled.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return failure
}
