package experiment

import (
	"fmt"
	"math"
	"runtime"
	"strings"
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

// sameFactor reports whether two float64 factors of a sweep (a shrink,
// an estimate scale) are the same factor in Cell lookups: equal within
// 1e-9. Adjacent configured factors differ by ≥ 0.01 in practice, so the
// tolerance absorbs accumulated rounding (e.g. a caller recomputing 0.7
// as 7*0.1 = 0.7000000000000001) without ever bridging two distinct
// factors.
func sameFactor(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// Cell returns the cell for the given shrink and scheduler name, or nil.
// The shrink factor is matched by sameFactor, so callers that recompute
// factors arithmetically (e.g. i*0.1 loops) find the cell they
// configured even when the recomputed float64 differs in the last bits.
func (r *Result) Cell(shrink float64, scheduler string) *Cell {
	for i := range r.Cells {
		if sameFactor(r.Cells[i].Shrink, shrink) && r.Cells[i].Scheduler == scheduler {
			return &r.Cells[i]
		}
	}
	return nil
}

// runSweep is the body Run and Fairness share. It generates cfg's job
// sets, derives one variant of each per label with transform (a shrinking
// factor, an estimate scale — once, shared read-only), simulates every
// (variant, scheduler, set) combination and returns what extract makes of
// each run: variant-major, scheduler-minor, cfg.Sets consecutive entries
// per cell.
//
// Schedulers that sim.RunGroup co-simulates — dynP drivers over the same
// candidates whose deciders observe nothing — form one group, decided
// once per sweep by sim.Groups over one probe driver per spec. Each
// (variant, group, set) is one task, not each (variant, set): tasks stay
// fine enough to balance on a few workers. Tasks run on the shard pool
// (internal/shard: workers claim the next task off one shared counter,
// so an expensive task never strands the tail of the sweep), and each
// task writes its members' fixed slots, so the result is byte-identical
// at any worker count. cfg.Progress counts member simulations, not
// tasks. The first simulation failure cancels the sweep: workers stop
// claiming tasks and runSweep returns that failure instead of simulating
// the remainder.
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
	probes := make([]sim.Driver, len(cfg.Schedulers))
	for i, spec := range cfg.Schedulers {
		probes[i] = spec.New()
	}
	groups, err := sim.Groups(probes)
	if err != nil {
		return nil, err
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
	err = shard.Run(workers, len(labels)*len(groups)*len(sets), func(i int) error {
		k := i % len(sets)
		group := groups[i/len(sets)%len(groups)]
		vi := i / len(sets) / len(groups)
		drivers := make([]sim.Driver, len(group))
		for m, si := range group {
			drivers[m] = cfg.Schedulers[si].New()
		}
		results, err := sim.RunGroup(variants[vi][k], drivers)
		if err != nil {
			names := make([]string, len(group))
			for m, si := range group {
				names[m] = cfg.Schedulers[si].Name
			}
			return fmt.Errorf("experiment: %s %s set %d: %w", strings.Join(names, ", "), labels[vi], k, err)
		}
		for m, si := range group {
			outcomes[(vi*len(cfg.Schedulers)+si)*len(sets)+k] = extract(results[m], drivers[m])
		}
		if cfg.Progress != nil {
			mu.Lock()
			for range group {
				done++
				cfg.Progress(done, len(outcomes))
			}
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
