package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/metrics"
	"dynp/internal/policy"
	"dynp/internal/shard"
	"dynp/internal/sim"
	"dynp/internal/stats"
	"dynp/internal/table"
	"dynp/internal/workload"
)

// FairnessCell is the aggregated outcome of one (overestimation factor,
// scheduler) combination of the fairness study.
type FairnessCell struct {
	Factor    float64 // estimate scale factor (1 = trace estimates)
	Scheduler string

	SLDwA float64 // drop-min/max mean over sets
	Util  float64
	AWT   float64 // average wait time — where unfairness to wide/long jobs shows

	SLDwAPerSet []float64
	AWTPerSet   []float64
}

// FairnessResult is the fairness study's outcome for one trace.
type FairnessResult struct {
	Model workload.Model
	Cells []FairnessCell // factor-major, scheduler-minor, in sweep order
}

// Cell returns the cell for the given factor and scheduler name, or nil.
func (r *FairnessResult) Cell(factor float64, scheduler string) *FairnessCell {
	for i := range r.Cells {
		if r.Cells[i].Factor == factor && r.Cells[i].Scheduler == scheduler {
			return &r.Cells[i]
		}
	}
	return nil
}

// AdaptiveSpec returns the spec of a dynP scheduler driven by the
// observer-driven adaptive decider shell: advanced decisions while calm,
// the unfair preferred rule toward fair once the observed backlog stays
// at or above depth for patience planning events. The fairness policy is
// appended to the paper's candidate set so the unfair rule can elect it.
func AdaptiveSpec(fair policy.Policy, depth, patience int) SchedulerSpec {
	name := "dynP/" + adaptive.Must(fair, depth, patience).Name()
	return SchedulerSpec{
		Name: name,
		New: func() sim.Driver {
			// Fresh decider per run: the shell carries observed state.
			return newDynPFor(adaptive.Must(fair, depth, patience))
		},
	}
}

// FairnessSchedulers returns the scheduler set of the fairness study:
// the paper's FCFS and SJF poles, the size-based PSBS family — the pure
// area ordering (alpha=0, r=1), an aged robust member (alpha=0.5, r=2)
// — plus the paper's unfair SJF-preferred dynP and the observer-driven
// adaptive shell preferring the robust PSBS member under pressure.
func FairnessSchedulers() []SchedulerSpec {
	robust := policy.MustFairSize(0.5, 2)
	return []SchedulerSpec{
		StaticSpec(policy.FCFS),
		StaticSpec(policy.SJF),
		StaticSpec(policy.MustFairSize(0, 1)),
		StaticSpec(robust),
		DynPSpec(core.Preferred{Policy: policy.SJF}),
		AdaptiveSpec(robust, 8, 3),
	}
}

// Fairness runs the estimate-robustness study: the configured schedulers
// over job sets whose estimates are scaled by each overestimation factor
// (workload.ScaleEstimates — factor 1 keeps the trace estimates, larger
// factors model users overestimating run times). Size-based policies
// order by estimated area, so their quality under estimate error is
// exactly what this sweep measures. cfg.Shrinks is ignored; the sets are
// simulated at their native load. Like Run, the sweep distributes
// simulations over a work-stealing shard pool and aggregates per-set
// values with the paper's drop-min/max rule.
func Fairness(cfg Config, factors []float64) (*FairnessResult, error) {
	if cfg.Sets < 1 || cfg.JobsPerSet < 1 {
		return nil, fmt.Errorf("experiment: need at least one set and one job, got %d/%d",
			cfg.Sets, cfg.JobsPerSet)
	}
	if len(factors) == 0 || len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("experiment: empty factor or scheduler list")
	}
	sets, err := cfg.Model.GenerateSets(cfg.Sets, cfg.JobsPerSet, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Pre-scale each set once per factor (shared, read-only).
	scaledSets := make([][]*job.Set, len(factors))
	for fi, f := range factors {
		scaledSets[fi] = make([]*job.Set, len(sets))
		for k, s := range sets {
			sc, err := workload.ScaleEstimates(s, f)
			if err != nil {
				return nil, err
			}
			scaledSets[fi][k] = sc
		}
	}

	type task struct {
		factorIdx, schedIdx, setIdx int
	}
	type outcome struct {
		sldwa, util, awt float64
	}
	var tasks []task
	for fi := range factors {
		for di := range cfg.Schedulers {
			for k := range sets {
				tasks = append(tasks, task{fi, di, k})
			}
		}
	}
	outcomes := make([]outcome, len(tasks))

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu   sync.Mutex
		done int
	)
	err = shard.Run(workers, len(tasks), func(i int) error {
		tk := tasks[i]
		driver := cfg.Schedulers[tk.schedIdx].New()
		res, err := sim.Run(scaledSets[tk.factorIdx][tk.setIdx], driver)
		if err != nil {
			return fmt.Errorf("experiment: %s estimate x%.2f set %d: %w",
				cfg.Schedulers[tk.schedIdx].Name, factors[tk.factorIdx], tk.setIdx, err)
		}
		outcomes[i] = outcome{
			sldwa: metrics.SLDwA(res),
			util:  metrics.Utilization(res),
			awt:   metrics.AWT(res),
		}
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

	result := &FairnessResult{Model: cfg.Model}
	ti := 0
	for _, f := range factors {
		for di := range cfg.Schedulers {
			cell := FairnessCell{Factor: f, Scheduler: cfg.Schedulers[di].Name}
			var utils []float64
			for range sets {
				o := outcomes[ti]
				cell.SLDwAPerSet = append(cell.SLDwAPerSet, o.sldwa)
				cell.AWTPerSet = append(cell.AWTPerSet, o.awt)
				utils = append(utils, o.util)
				ti++
			}
			cell.SLDwA = stats.DropMinMaxMean(cell.SLDwAPerSet)
			cell.AWT = stats.DropMinMaxMean(cell.AWTPerSet)
			cell.Util = stats.DropMinMaxMean(utils)
			result.Cells = append(result.Cells, cell)
		}
	}
	return result, nil
}

// FairnessTable renders fairness-study results: one row per trace and
// overestimation factor, SLDwA and average-wait columns per scheduler.
func FairnessTable(results []*FairnessResult, factors []float64, schedulers []string) *table.Table {
	headers := []string{"trace", "est x"}
	for _, s := range schedulers {
		headers = append(headers, "SLDwA "+s)
	}
	for _, s := range schedulers {
		headers = append(headers, "AWT "+s)
	}
	t := table.New("fairness study: size-based scheduling under estimate overestimation", headers...)
	for _, r := range results {
		for _, f := range factors {
			cells := []any{r.Model.Name, fmt.Sprintf("%.1f", f)}
			ok := true
			for _, s := range schedulers {
				c := r.Cell(f, s)
				if c == nil {
					ok = false
					break
				}
				cells = append(cells, c.SLDwA)
			}
			for _, s := range schedulers {
				c := r.Cell(f, s)
				if c == nil {
					ok = false
					break
				}
				cells = append(cells, c.AWT)
			}
			if ok {
				t.AddRowf(cells...)
			}
		}
		t.AddSeparator()
	}
	return t
}
