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

// runSweep is the body Run and Fairness share. It generates cfg's job
// sets, derives one variant of each per label with transform (a shrinking
// factor, an estimate scale — once, shared read-only), simulates every
// (variant, scheduler, set) combination on the shard pool
// (internal/shard: workers claim the next task off one shared counter, so
// an expensive cell never strands the tail of the sweep) and returns what
// extract makes of each run: variant-major, scheduler-minor, cfg.Sets
// consecutive entries per cell. Every task writes its fixed slot, so the
// result is byte-identical at any worker count. The first simulation
// failure cancels the sweep: workers stop claiming tasks and runSweep
// returns that failure instead of simulating the remainder.
func runSweep[O any](cfg Config, labels []string, transform func(variant int, s *job.Set) (*job.Set, error),
	extract func(*sim.Result, sim.Driver) O) ([]O, error) {
	if cfg.Sets < 1 || cfg.JobsPerSet < 1 {
		return nil, fmt.Errorf("experiment: need at least one set and one job, got %d/%d",
			cfg.Sets, cfg.JobsPerSet)
	}
	if len(labels) == 0 || len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("experiment: nothing to sweep: %d variants of the job sets, %d schedulers",
			len(labels), len(cfg.Schedulers))
	}
	sets, err := cfg.Model.GenerateSets(cfg.Sets, cfg.JobsPerSet, cfg.Seed)
	if err != nil {
		return nil, err
	}
	variants := make([][]*job.Set, len(labels))
	for vi := range labels {
		variants[vi] = make([]*job.Set, len(sets))
		for k, s := range sets {
			if variants[vi][k], err = transform(vi, s); err != nil {
				return nil, err
			}
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
	outcomes := make([]O, len(labels)*len(cfg.Schedulers)*len(sets))
	err = shard.Run(workers, len(outcomes), func(i int) error {
		k := i % len(sets)
		spec := cfg.Schedulers[i/len(sets)%len(cfg.Schedulers)]
		vi := i / len(sets) / len(cfg.Schedulers)
		driver := spec.New()
		res, err := sim.Run(variants[vi][k], driver)
		if err != nil {
			return fmt.Errorf("experiment: %s %s set %d: %w", spec.Name, labels[vi], k, err)
		}
		outcomes[i] = extract(res, driver)
		if cfg.Progress != nil {
			mu.Lock()
			done++
			cfg.Progress(done, len(outcomes))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outcomes, nil
}

// column reads one per-set value off a cell's outcomes.
func column[O any](cell []O, value func(O) float64) []float64 {
	out := make([]float64, len(cell))
	for i, o := range cell {
		out[i] = value(o)
	}
	return out
}

// Run executes the sweep: every scheduler over every job set at every
// shrinking factor (see runSweep for how the simulations are distributed
// and why the result does not depend on the worker count).
func Run(cfg Config) (*Result, error) {
	type outcome struct {
		sldwa, util float64
		switches    float64
		policyShare map[policy.Policy]float64
	}
	labels := make([]string, len(cfg.Shrinks))
	for i, f := range cfg.Shrinks {
		labels[i] = fmt.Sprintf("shrink %.2f", f)
	}
	outcomes, err := runSweep(cfg, labels,
		func(vi int, s *job.Set) (*job.Set, error) { return s.Shrink(cfg.Shrinks[vi]), nil },
		func(res *sim.Result, driver sim.Driver) outcome {
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
			return o
		})
	if err != nil {
		return nil, err
	}

	result := &Result{Model: cfg.Model}
	n := float64(cfg.Sets)
	for _, f := range cfg.Shrinks {
		for _, spec := range cfg.Schedulers {
			perSet := outcomes[len(result.Cells)*cfg.Sets:][:cfg.Sets]
			cell := Cell{
				Shrink:      f,
				Scheduler:   spec.Name,
				SLDwAPerSet: column(perSet, func(o outcome) float64 { return o.sldwa }),
				UtilPerSet:  column(perSet, func(o outcome) float64 { return o.util }),
				PolicyShare: make(map[policy.Policy]float64),
			}
			for _, o := range perSet {
				cell.Switches += o.switches
				for p, s := range o.policyShare {
					cell.PolicyShare[p] += s
				}
			}
			cell.SLDwA = stats.DropMinMaxMean(cell.SLDwAPerSet)
			cell.Util = stats.DropMinMaxMean(cell.UtilPerSet)
			cell.Switches /= n
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
