package dynp

import (
	"dynp/internal/adaptive"
	"dynp/internal/experiment"
	"dynp/internal/table"
)

// Experiment harness re-exports: sweeps over shrinking factors, job sets
// and schedulers, aggregated with the paper's drop-min/max rule, plus the
// builders for every table and figure of the evaluation section.
type (
	// ExperimentConfig describes one trace's sweep.
	ExperimentConfig = experiment.Config
	// ExperimentResult is a completed sweep for one trace.
	ExperimentResult = experiment.Result
	// ExperimentCell is one (shrink, scheduler) aggregate.
	ExperimentCell = experiment.Cell
	// SchedulerSpec names a scheduler and builds fresh instances.
	SchedulerSpec = experiment.SchedulerSpec
	// Table is an aligned text table.
	Table = table.Table
	// Figure is a set of data series standing in for a paper plot.
	Figure = table.Figure
	// Series is one curve of a Figure.
	Series = table.Series
)

// RunExperiment executes one trace's sweep.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.Run(cfg)
}

// RunExperiments sweeps several traces with a shared configuration.
func RunExperiments(models []Model, cfg ExperimentConfig) ([]*ExperimentResult, error) {
	return experiment.RunAll(models, cfg)
}

// Ablation identifies one of the design-choice studies (see DESIGN.md).
type Ablation = experiment.Ablation

// The ablation studies.
const (
	AblationPreferred  = experiment.AblationPreferred
	AblationDecider    = experiment.AblationDecider
	AblationMetric     = experiment.AblationMetric
	AblationQueueing   = experiment.AblationQueueing
	AblationCandidates = experiment.AblationCandidates
)

// Ablations lists all implemented ablation studies.
func Ablations() []Ablation { return experiment.Ablations() }

// ComparisonTable renders a generic scheduler comparison over sweep
// results (used by the ablation studies).
func ComparisonTable(title string, results []*ExperimentResult, shrinks []float64, schedulers []string) *Table {
	return experiment.Comparison(title, results, shrinks, schedulers)
}

// StaticSpec returns the spec of a basic single-policy scheduler.
func StaticSpec(p Policy) SchedulerSpec { return experiment.StaticSpec(p) }

// EASYSpec returns the spec of the queueing-based EASY baseline.
func EASYSpec(base Policy) SchedulerSpec { return experiment.EASYSpec(base) }

// DynPSpec returns the spec of a dynP scheduler with the given decider.
func DynPSpec(d Decider) SchedulerSpec { return experiment.DynPSpec(d) }

// ParseSchedulerSpec parses "FCFS", "dynP/advanced", "dynP/SJF-preferred"
// and the like.
func ParseSchedulerSpec(name string) (SchedulerSpec, error) { return experiment.ParseSpec(name) }

// PaperSchedulers returns the paper's five evaluated schedulers.
func PaperSchedulers() []SchedulerSpec { return experiment.PaperSchedulers() }

// PaperShrinks returns the paper's shrinking factors 1.0..0.6.
func PaperShrinks() []float64 { return experiment.PaperShrinks() }

// PaperTable1 renders the decision analysis of the simple decider.
func PaperTable1() *Table { return experiment.Table1() }

// PaperTable2 renders generated job set properties against the paper's
// published trace statistics.
func PaperTable2(models []Model, jobs int, seed uint64) (*Table, error) {
	return experiment.Table2(models, jobs, seed)
}

// PaperTable3 condenses Table 5 into per-trace averages.
func PaperTable3(results []*ExperimentResult, shrinks []float64) *Table {
	return experiment.Table3(results, shrinks)
}

// PaperTable4 renders the basic-policy numbers behind Figures 1 and 2.
func PaperTable4(results []*ExperimentResult, shrinks []float64) *Table {
	return experiment.Table4(results, shrinks)
}

// PaperTable5 renders the dynP numbers behind Figures 3 and 4, with
// differences to SJF.
func PaperTable5(results []*ExperimentResult, shrinks []float64) *Table {
	return experiment.Table5(results, shrinks)
}

// PaperFigure assembles figure 1-4 data series (one Figure per trace).
func PaperFigure(results []*ExperimentResult, number int, shrinks []float64) ([]*Figure, error) {
	return experiment.Figure(results, number, shrinks)
}

// DetailTable renders per-set dispersion (min/max/stddev over job sets)
// behind the aggregated numbers.
func DetailTable(results []*ExperimentResult, shrinks []float64) *Table {
	return experiment.Detail(results, shrinks)
}

// PolicySharesTable renders, for one dynP scheduler, how the simulated
// time splits across the candidate policies per trace and shrinking
// factor (plus mean switch counts).
func PolicySharesTable(results []*ExperimentResult, shrinks []float64, scheduler string) *Table {
	return experiment.PolicyShares(results, shrinks, scheduler)
}

// FairnessResult is a completed fairness (estimate-robustness) study for
// one trace.
type FairnessResult = experiment.FairnessResult

// NewAdaptiveDecider returns the load-driven adaptive decider shell:
// the advanced rule while calm, the unfair preferred rule toward fair
// once the backlog its tuner reports after each step has stayed at or
// above depth for patience consecutive steps (and back, with the same
// hysteresis). It is stateful (its mode rides checkpoints) and is
// registered as the decider family
// "adaptive(<POLICY>,depth=<n>,patience=<n>)".
func NewAdaptiveDecider(fair Policy, depth, patience int) (Decider, error) {
	return adaptive.New(fair, depth, patience)
}

// AdaptiveSpec returns the spec of a dynP scheduler driven by the
// adaptive decider shell; the fairness policy is appended to the
// candidate set when it is not already in it.
func AdaptiveSpec(fair Policy, depth, patience int) SchedulerSpec {
	return experiment.AdaptiveSpec(fair, depth, patience)
}

// FairnessSchedulers returns the scheduler set of the fairness study:
// FCFS, SJF, two PSBS members, the paper's SJF-preferred dynP and the
// adaptive shell.
func FairnessSchedulers() []SchedulerSpec { return experiment.FairnessSchedulers() }

// RunFairness executes the fairness study — the configured schedulers
// over job sets whose estimates are scaled by each overestimation factor
// — for one trace.
func RunFairness(cfg ExperimentConfig, factors []float64) (*FairnessResult, error) {
	return experiment.Fairness(cfg, factors)
}

// RunFairnessAll runs the fairness study over several traces.
func RunFairnessAll(models []Model, cfg ExperimentConfig, factors []float64) ([]*FairnessResult, error) {
	out := make([]*FairnessResult, 0, len(models))
	for _, m := range models {
		c := cfg
		c.Model = m
		r, err := experiment.Fairness(c, factors)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FairnessTable renders fairness-study results across traces.
func FairnessTable(results []*FairnessResult, factors []float64, schedulers []string) *Table {
	return experiment.FairnessTable(results, factors, schedulers)
}
