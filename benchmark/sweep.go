package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"dynp/internal/experiment"
	"dynp/internal/sim"
	"dynp/internal/table"
)

// sweepWorkers is the shard-pool size of the sweep workload: every core
// of a small machine, but no more than four so the number stays
// comparable across hosts.
func sweepWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

// sweepJobs is the number of simulated jobs one sweep pass runs.
func (s spec) sweepJobs(sets, jobs int) int {
	return len(s.models) * len(s.shrinks) * len(experiment.PaperSchedulers()) * sets * jobs
}

// sweep runs experiment.Run for every model of the workload and renders
// the paper's Tables 3, 4 and 5 — the whole of what `cmd/paper` does
// for a user — returning the rendered bytes. The job sets are generated
// inside experiment.Run from the pinned seed.
func (s spec) sweep(sets, jobs, workers int, schedulers []experiment.SchedulerSpec, progress func(done, total int)) ([]byte, error) {
	results, err := experiment.RunAll(s.models, experiment.Config{
		Shrinks: s.shrinks, Sets: sets, JobsPerSet: jobs, Seed: pinnedSeed,
		Schedulers: schedulers, Workers: workers, Progress: progress,
	})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	for _, t := range []*table.Table{
		experiment.Table3(results, s.shrinks),
		experiment.Table4(results, s.shrinks),
		experiment.Table5(results, s.shrinks),
	} {
		if err := t.Render(&out); err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// traceSweep measures the sweep layers: the same sweep at one worker,
// where tasks run back to back and each gets an experiment.task span
// (opened when the sweep constructs the task's driver, closed by its
// progress callback), and at the workload's worker count. Both must
// render identical tables.
func (s spec) traceSweep(tr *tracer, sets, jobs int, ops *tally) map[string]float64 {
	workers := sweepWorkers()

	root := tr.begin("experiment.sweep", -1, 0)
	tr.spans[root].Run = int32(root)
	task := -1
	specs := experiment.PaperSchedulers()
	for i := range specs {
		inner, static := specs[i].New, !strings.HasPrefix(specs[i].Name, "dynP/")
		specs[i].New = func() sim.Driver {
			task = tr.begin("experiment.task", root, root)
			if static {
				tr.spans[task].N = 1
			}
			return inner()
		}
	}
	serial, err := s.sweep(sets, jobs, 1, specs, func(int, int) { tr.end(task) })
	tr.end(root)
	ops.op(err)

	start := time.Now()
	parallel, err := s.sweep(sets, jobs, workers, experiment.PaperSchedulers(), nil)
	wall := time.Since(start)
	if err == nil && !bytes.Equal(serial, parallel) {
		err = fmt.Errorf("sweep tables differ between 1 and %d workers", workers)
	}
	ops.op(err)

	var static, all int64
	for _, sp := range tr.spans {
		if sp.Name == "experiment.task" {
			all += sp.dur()
			if sp.N == 1 {
				static += sp.dur()
			}
		}
	}
	return map[string]float64{
		"shard.parallel_efficiency": float64(tr.spans[root].dur()) / (float64(workers) * float64(wall)),
		"experiment.static_share":   float64(static) / float64(all),
	}
}
