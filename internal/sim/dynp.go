package sim

import (
	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// DynP is the Driver for the self-tuning dynP scheduler: every scheduling
// event performs one self-tuning step (three what-if schedules, one per
// candidate policy, scored and decided). The tuner's lane orders the
// queue it is handed by splicing in what changed since the last step
// (core.Lane), so the driver needs no word of queue changes in between.
type DynP struct {
	Tuner *core.SelfTuner
	label string
}

// NewDynP returns a dynP driver over the paper's candidate set with the
// given decider and the paper's decision metric (planned SLDwA). The
// initial active policy is FCFS, matching a freshly started scheduler.
func NewDynP(d core.Decider) *DynP {
	return &DynP{Tuner: core.NewSelfTuner(nil, d, core.MetricSLDwA),
		label: "dynP/" + d.Name()}
}

// NewDynPWith returns a dynP driver with full control over candidate set,
// decider and decision metric, for the ablation experiments.
func NewDynPWith(candidates []policy.Policy, d core.Decider, m core.Metric) *DynP {
	return &DynP{Tuner: core.NewSelfTuner(candidates, d, m),
		label: "dynP/" + d.Name() + "/" + m.String()}
}

// Name implements Driver.
func (d *DynP) Name() string { return d.label }

// SetLabel overrides the driver's display name (used in results and
// sweep columns). It returns d for chaining.
func (d *DynP) SetLabel(label string) *DynP {
	d.label = label
	return d
}

// Plan implements Driver by performing one self-tuning step.
func (d *DynP) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	return d.Tuner.Plan(now, capacity, running, waiting)
}

// ActivePolicy implements Driver.
func (d *DynP) ActivePolicy() policy.Policy { return d.Tuner.Active() }

// NoteSubmit does nothing: the tuner's order views follow the queue each
// Plan is handed.
//
// Deprecated: drop the call. It stays while benchmark/trace.go calls it
// (ROADMAP.md, item 1(a)).
func (d *DynP) NoteSubmit(*job.Job) {}

// NoteRemove does nothing, like NoteSubmit.
//
// Deprecated: drop the call. It stays while benchmark/trace.go calls it
// (ROADMAP.md, item 1(a)).
func (d *DynP) NoteRemove(*job.Job) {}

// TunerState implements core.Tuned: the tuner's decision state as a
// value, the form an online scheduler's image holds it in and whose JSON
// its checkpoints store.
func (d *DynP) TunerState() (core.TunerState, error) { return d.Tuner.CaptureState() }

// SetTunerState installs a decision state captured by TunerState from a
// driver of the same configuration, as a quote twin and journal recovery
// do.
func (d *DynP) SetTunerState(st core.TunerState) error { return d.Tuner.RestoreState(st) }

// Stats exposes the tuner's decision statistics.
func (d *DynP) Stats() core.Stats { return d.Tuner.Stats() }

// Cases implements core.Tuned: the tuner's decisions by Table 1 case.
func (d *DynP) Cases() core.CaseCounts { return d.Tuner.Cases() }

// LastDecisionCase classifies the most recent self-tuning step as one of
// the paper's Table-1 cases; the scheduling engine stamps it on every
// EventPlan it emits (see engine.DecisionCaser).
func (d *DynP) LastDecisionCase() string { return d.Tuner.LastDecisionCase() }
