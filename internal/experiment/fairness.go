package experiment

import (
	"fmt"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/metrics"
	"dynp/internal/policy"
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
// The factor is matched as Result.Cell matches a shrink (sameFactor).
func (r *FairnessResult) Cell(factor float64, scheduler string) *FairnessCell {
	for i := range r.Cells {
		if sameFactor(r.Cells[i].Factor, factor) && r.Cells[i].Scheduler == scheduler {
			return &r.Cells[i]
		}
	}
	return nil
}

// AdaptiveSpec returns the spec of a dynP scheduler driven by the
// load-driven adaptive decider shell: advanced decisions while calm,
// the unfair preferred rule toward fair once the backlog its tuner
// reports stays at or above depth for patience steps. The fairness policy is
// appended to the paper's candidate set so the unfair rule can elect it.
func AdaptiveSpec(fair policy.Policy, depth, patience int) SchedulerSpec {
	name := "dynP/" + adaptive.Must(fair, depth, patience).Name()
	return SchedulerSpec{
		Name: name,
		New: func() sim.Driver {
			// Fresh decider per run: the shell carries state.
			return newDynPFor(adaptive.Must(fair, depth, patience))
		},
	}
}

// FairnessSchedulers returns the scheduler set of the fairness study:
// the paper's FCFS and SJF poles, the size-based PSBS family — the pure
// area ordering (alpha=0, r=1), an aged robust member (alpha=0.5, r=2)
// — plus the paper's unfair SJF-preferred dynP and the load-driven
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
// simulated at their native load. It is Run's sweep over another variant
// of the job sets, aggregated with the same drop-min/max rule.
func Fairness(cfg Config, factors []float64) (*FairnessResult, error) {
	type outcome struct {
		sldwa, util, awt float64
	}
	labels := make([]string, len(factors))
	for i, f := range factors {
		labels[i] = fmt.Sprintf("estimate x%.2f", f)
	}
	outcomes, err := runSweep(cfg, labels,
		func(vi int, s *job.Set) (*job.Set, error) { return workload.ScaleEstimates(s, factors[vi]) },
		func(res *sim.Result, _ sim.Driver) outcome {
			return outcome{sldwa: metrics.SLDwA(res), util: metrics.Utilization(res), awt: metrics.AWT(res)}
		})
	if err != nil {
		return nil, err
	}

	result := &FairnessResult{Model: cfg.Model}
	for _, f := range factors {
		for _, spec := range cfg.Schedulers {
			perSet := outcomes[len(result.Cells)*cfg.Sets:][:cfg.Sets]
			cell := FairnessCell{
				Factor:      f,
				Scheduler:   spec.Name,
				SLDwAPerSet: column(perSet, func(o outcome) float64 { return o.sldwa }),
				AWTPerSet:   column(perSet, func(o outcome) float64 { return o.awt }),
			}
			cell.SLDwA = stats.DropMinMaxMean(cell.SLDwAPerSet)
			cell.AWT = stats.DropMinMaxMean(cell.AWTPerSet)
			cell.Util = stats.DropMinMaxMean(column(perSet, func(o outcome) float64 { return o.util }))
			result.Cells = append(result.Cells, cell)
		}
	}
	return result, nil
}

// FairnessTable renders fairness-study results: one row per trace and
// overestimation factor, SLDwA and average-wait columns per scheduler.
func FairnessTable(results []*FairnessResult, factors []float64, schedulers []string) *table.Table {
	return comparison("fairness study: size-based scheduling under estimate overestimation", "est x", "AWT ",
		results, factors, schedulers,
		func(r *FairnessResult) string { return r.Model.Name },
		func(r *FairnessResult, f float64, s string) (float64, float64, bool) {
			c := r.Cell(f, s)
			if c == nil {
				return 0, 0, false
			}
			return c.SLDwA, c.AWT, true
		})
}
