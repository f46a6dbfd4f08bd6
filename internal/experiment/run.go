package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"dynp/internal/job"
	"dynp/internal/metrics"
	"dynp/internal/policy"
	"dynp/internal/shard"
	"dynp/internal/sim"
	"dynp/internal/stats"
	"dynp/internal/workload"
)

// Config describes one trace's sweep: which workload model, how many job
// sets of which size, which shrinking factors and schedulers.
type Config struct {
	Model      workload.Model
	Shrinks    []float64
	Sets       int    // independent job sets (paper: 10)
	JobsPerSet int    // jobs per set (paper: 10,000)
	Seed       uint64 // base seed; job set k is a pure function of (model, seed, k)
	Schedulers []SchedulerSpec
	Workers    int // worker pool size; 0 = GOMAXPROCS

	// Progress, when set, is invoked after each completed simulation.
	// Calls are serialized (never concurrent) and done is strictly
	// increasing from 1 to the final task count, regardless of the worker
	// count or completion order. The callback runs under the sweep's
	// progress lock, so it should not block for long.
	Progress func(done, total int)
}

// Cell is the aggregated outcome of one (shrink, scheduler) combination:
// the drop-min/max mean over the job sets, plus the raw per-set values.
type Cell struct {
	Shrink    float64
	Scheduler string

	SLDwA float64 // paper aggregation over sets
	Util  float64 // utilization in [0,1], paper aggregation over sets

	SLDwAPerSet []float64
	UtilPerSet  []float64

	// Self-tuning statistics, averaged over sets (zero for static
	// schedulers): policy switches and the share of simulated time each
	// policy was active.
	Switches    float64
	PolicyShare map[policy.Policy]float64
}

// Result is the full sweep outcome for one trace.
type Result struct {
	Model workload.Model
	Cells []Cell // shrink-major, scheduler-minor, in Config order
}

// shrinkEps bounds the distance within which two float64 shrink factors
// are considered the same factor in Cell lookups. Factors live in (0, 1]
// and adjacent configured factors differ by ≥ 0.01 in practice, so a 1e-9
// tolerance absorbs accumulated rounding (e.g. a caller recomputing 0.7 as
// 7*0.1 = 0.7000000000000001) without ever bridging two distinct factors.
const shrinkEps = 1e-9

// Cell returns the cell for the given shrink and scheduler name, or nil.
// The shrink factor is matched within a small epsilon, so callers that
// recompute factors arithmetically (e.g. i*0.1 loops) find the cell they
// configured even when the recomputed float64 differs in the last bits.
func (r *Result) Cell(shrink float64, scheduler string) *Cell {
	for i := range r.Cells {
		if math.Abs(r.Cells[i].Shrink-shrink) <= shrinkEps && r.Cells[i].Scheduler == scheduler {
			return &r.Cells[i]
		}
	}
	return nil
}

// Run executes the sweep. Independent simulations are distributed over a
// work-stealing shard pool (internal/shard): each worker owns a strided
// slice of the (shrink, scheduler, set) task list and steals from the
// fullest remaining shard when its own runs dry, so one
// expensive cell never strands the tail of the sweep. Every task writes
// into its fixed outcome slot, so results are byte-identical regardless
// of worker count. The first simulation failure cancels the sweep:
// workers stop claiming tasks and Run returns that failure instead of
// simulating the remainder.
func Run(cfg Config) (*Result, error) {
	if cfg.Sets < 1 || cfg.JobsPerSet < 1 {
		return nil, fmt.Errorf("experiment: need at least one set and one job, got %d/%d",
			cfg.Sets, cfg.JobsPerSet)
	}
	if len(cfg.Shrinks) == 0 || len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("experiment: empty shrink or scheduler list")
	}
	sets, err := cfg.Model.GenerateSets(cfg.Sets, cfg.JobsPerSet, cfg.Seed)
	if err != nil {
		return nil, err
	}

	type task struct {
		shrinkIdx, schedIdx, setIdx int
	}
	type outcome struct {
		sldwa, util float64
		switches    float64
		policyShare map[policy.Policy]float64
	}

	var tasks []task
	for si := range cfg.Shrinks {
		for di := range cfg.Schedulers {
			for k := range sets {
				tasks = append(tasks, task{si, di, k})
			}
		}
	}
	outcomes := make([]outcome, len(tasks))

	// Pre-shrink each set once per factor (shared, read-only).
	shrunk := make([][]*job.Set, len(cfg.Shrinks))
	for si, f := range cfg.Shrinks {
		shrunk[si] = make([]*job.Set, len(sets))
		for k, s := range sets {
			shrunk[si][k] = s.Shrink(f)
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var (
		mu   sync.Mutex // serializes cfg.Progress and its done counter
		done int
	)
	err = shard.Run(workers, len(tasks), func(i int) error {
		tk := tasks[i]
		driver := cfg.Schedulers[tk.schedIdx].New()
		res, err := sim.Run(shrunk[tk.shrinkIdx][tk.setIdx], driver)
		if err != nil {
			return fmt.Errorf("experiment: %s shrink %.2f set %d: %w",
				cfg.Schedulers[tk.schedIdx].Name, cfg.Shrinks[tk.shrinkIdx], tk.setIdx, err)
		}
		o := outcome{
			sldwa:       metrics.SLDwA(res),
			util:        metrics.Utilization(res),
			policyShare: make(map[policy.Policy]float64),
		}
		var span int64
		for _, d := range res.PolicyTime {
			span += d
		}
		if span > 0 {
			for p, d := range res.PolicyTime {
				o.policyShare[p] = float64(d) / float64(span)
			}
		}
		if d, ok := driver.(*sim.DynP); ok {
			o.switches = float64(d.Stats().Switches)
		}
		outcomes[i] = o
		if cfg.Progress != nil {
			mu.Lock()
			done++
			cfg.Progress(done, len(tasks))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	result := &Result{Model: cfg.Model}
	ti := 0
	for _, f := range cfg.Shrinks {
		for di := range cfg.Schedulers {
			cell := Cell{
				Shrink:      f,
				Scheduler:   cfg.Schedulers[di].Name,
				PolicyShare: make(map[policy.Policy]float64),
			}
			var switches float64
			for range sets {
				o := outcomes[ti]
				cell.SLDwAPerSet = append(cell.SLDwAPerSet, o.sldwa)
				cell.UtilPerSet = append(cell.UtilPerSet, o.util)
				switches += o.switches
				for p, s := range o.policyShare {
					cell.PolicyShare[p] += s
				}
				ti++
			}
			n := float64(len(sets))
			cell.SLDwA = stats.DropMinMaxMean(cell.SLDwAPerSet)
			cell.Util = stats.DropMinMaxMean(cell.UtilPerSet)
			cell.Switches = switches / n
			for p := range cell.PolicyShare {
				cell.PolicyShare[p] /= n
			}
			result.Cells = append(result.Cells, cell)
		}
	}
	return result, nil
}

// RunAll sweeps several traces with a shared configuration.
func RunAll(models []workload.Model, cfg Config) ([]*Result, error) {
	out := make([]*Result, 0, len(models))
	for _, m := range models {
		c := cfg
		c.Model = m
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
