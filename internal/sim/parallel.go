package sim

import (
	"runtime"

	"dynp/internal/job"
	"dynp/internal/shard"
)

// RunParallel simulates several independent job sets concurrently on the
// shard pool (internal/shard) and returns the results in input order.
// Each run gets a fresh driver from newDriver — drivers carry tuner
// state, so one instance must never serve two concurrent runs.
// workers <= 0 selects GOMAXPROCS.
//
// The output is byte-identical to running the same sets sequentially
// through Run with drivers from the same factory: every simulation is an
// independent event stream writing into its fixed result slot, so the
// worker count decides only the wall clock. The first failure cancels
// the remaining runs and is returned (smallest set index wins when
// several fail).
//
// Repeated entries are allowed — passing the same *job.Set n times runs
// n independent replicas — and the per-run options of Run (observers,
// verification) are deliberately absent: an observer shared across
// concurrent runs would race, so observed runs go through Run.
func RunParallel(sets []*job.Set, newDriver func() Driver, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, len(sets))
	err := shard.Run(workers, len(sets), func(i int) (err error) {
		results[i], err = Run(sets[i], newDriver())
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
