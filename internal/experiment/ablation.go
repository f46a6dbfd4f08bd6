package experiment

import (
	"fmt"

	"dynp/internal/core"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/table"
)

// Ablation identifies one of the design-choice studies listed in
// DESIGN.md, each comparing scheduler variants beyond the paper's five.
type Ablation string

// The ablation studies.
const (
	// AblationPreferred compares preferring each candidate policy (the
	// paper evaluates only SJF-preferred).
	AblationPreferred Ablation = "pref"
	// AblationDecider compares the three decider generations end to
	// end, quantifying the cost of the simple decider's Table 1 errors.
	AblationDecider Ablation = "decider"
	// AblationMetric compares self-tuning decision metrics.
	AblationMetric Ablation = "metric"
	// AblationQueueing contrasts planning-based scheduling with the
	// queueing-based EASY backfilling of reference [6].
	AblationQueueing Ablation = "easy"
	// AblationCandidates extends the candidate set with the
	// area-ordered policies.
	AblationCandidates Ablation = "candidates"
)

// Ablations lists all implemented ablation studies.
func Ablations() []Ablation {
	return []Ablation{AblationPreferred, AblationDecider, AblationMetric,
		AblationQueueing, AblationCandidates}
}

// Schedulers returns the scheduler set of the ablation study.
func (a Ablation) Schedulers() ([]SchedulerSpec, error) {
	switch a {
	case AblationPreferred:
		return []SchedulerSpec{
			DynPSpec(core.Advanced{}),
			DynPSpec(core.Preferred{Policy: policy.FCFS}),
			DynPSpec(core.Preferred{Policy: policy.SJF}),
			DynPSpec(core.Preferred{Policy: policy.LJF}),
		}, nil
	case AblationDecider:
		return []SchedulerSpec{
			DynPSpec(core.Simple{}),
			DynPSpec(core.Advanced{}),
			DynPSpec(core.Preferred{Policy: policy.SJF}),
		}, nil
	case AblationMetric:
		return []SchedulerSpec{
			DynPMetricSpec(core.Advanced{}, core.MetricSLDwA),
			DynPMetricSpec(core.Advanced{}, core.MetricART),
			DynPMetricSpec(core.Advanced{}, core.MetricARTwW),
			DynPMetricSpec(core.Advanced{}, core.MetricMakespan),
		}, nil
	case AblationQueueing:
		return []SchedulerSpec{
			StaticSpec(policy.FCFS),
			EASYSpec(policy.FCFS),
			DynPSpec(core.Preferred{Policy: policy.SJF}),
		}, nil
	case AblationCandidates:
		return []SchedulerSpec{
			DynPSpec(core.Advanced{}),
			{
				Name: "dynP/advanced+areas",
				New: func() sim.Driver {
					return sim.NewDynPWith(policy.All, core.Advanced{}, core.MetricSLDwA)
				},
			},
		}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown ablation %q (want one of %v)", a, Ablations())
	}
}

// Title returns a human-readable description for table headers.
func (a Ablation) Title() string {
	switch a {
	case AblationPreferred:
		return "preferred-policy ablation: which policy should the unfair decider prefer?"
	case AblationDecider:
		return "decider ablation: end-to-end cost of the simple decider's wrong decisions"
	case AblationMetric:
		return "decision-metric ablation: what should the self-tuning step optimise?"
	case AblationQueueing:
		return "queueing vs planning: EASY backfilling against planning-based scheduling"
	case AblationCandidates:
		return "candidate-set ablation: paper set vs area-ordered extensions"
	default:
		return string(a)
	}
}

// Comparison renders a generic scheduler-comparison table over sweep
// results: one row per trace and shrinking factor, SLDwA and utilization
// columns per scheduler.
func Comparison(title string, results []*Result, shrinks []float64, schedulers []string) *table.Table {
	return comparison(title, "shrink", "util% ", results, shrinks, schedulers,
		func(r *Result) string { return r.Model.Name },
		func(r *Result, f float64, s string) (float64, float64, bool) {
			c := r.Cell(f, s)
			if c == nil {
				return 0, 0, false
			}
			return c.SLDwA, 100 * c.Util, true
		})
}

// comparison is the table Comparison and FairnessTable share: one row
// per result and variant of the job sets, a SLDwA column per scheduler,
// then a column of a second metric per scheduler. A row missing any
// scheduler's cell is left out.
func comparison[R any](title, variant, second string, results []R, variants []float64, schedulers []string,
	name func(R) string, cell func(r R, variant float64, scheduler string) (sldwa, second float64, ok bool)) *table.Table {
	headers := []string{"trace", variant}
	for _, s := range schedulers {
		headers = append(headers, "SLDwA "+s)
	}
	for _, s := range schedulers {
		headers = append(headers, second+s)
	}
	t := table.New(title, headers...)
	for _, r := range results {
	rows:
		for _, f := range variants {
			cells := []any{name(r), fmt.Sprintf("%.1f", f)}
			seconds := make([]any, 0, len(schedulers))
			for _, s := range schedulers {
				a, b, ok := cell(r, f, s)
				if !ok {
					continue rows
				}
				cells = append(cells, a)
				seconds = append(seconds, b)
			}
			t.AddRowf(append(cells, seconds...)...)
		}
		t.AddSeparator()
	}
	return t
}
