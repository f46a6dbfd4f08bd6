package core

import (
	"fmt"
	"slices"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// Decision records one self-tuning step for auditing and the
// policy-usage statistics reported by the experiment harness.
type Decision struct {
	Time   int64
	Old    policy.Policy
	Chosen policy.Policy
	Values []float64 // scores in candidate order
}

// Stats aggregates the decisions of one simulation run. Chosen is keyed
// by policy name (not policy value) so the counts serialize stably and
// survive registry changes across a checkpoint restart.
type Stats struct {
	Steps    int            // self-tuning steps performed
	Switches int            // steps that changed the active policy
	Chosen   map[string]int // how often each policy was chosen, by Name
}

// SelfTuner is the self-tuning dynP scheduler core. At every scheduling
// event, Plan builds a full what-if schedule per candidate policy, scores
// them with Metric and lets Decider pick the policy whose schedule is
// executed. The zero value is not usable; construct with NewSelfTuner.
// The placement work of a step, ordering the queue included, is the
// shared Lane's.
type SelfTuner struct {
	candidates []policy.Policy
	decider    Decider
	metric     Metric
	active     policy.Policy
	stats      Stats
	trace      []Decision // populated only when Trace is enabled
	traceOn    bool
	last       Decision // most recent decision, kept regardless of tracing
	hasLast    bool
	values     []float64 // Choose's scores, overwritten every step

	lane *Lane // over candidates
}

// NewSelfTuner returns a self-tuner over the given candidate policies
// (the paper's set policy.Candidates when nil), starting with the first
// candidate as the active policy.
func NewSelfTuner(candidates []policy.Policy, d Decider, m Metric) *SelfTuner {
	if len(candidates) == 0 {
		candidates = policy.Candidates
	}
	if d == nil {
		panic("core: NewSelfTuner with nil decider")
	}
	cs := append([]policy.Policy(nil), candidates...)
	return &SelfTuner{
		candidates: cs,
		decider:    d,
		metric:     m,
		active:     cs[0],
		stats:      Stats{Chosen: make(map[string]int)},
		lane:       NewLane(cs...),
	}
}

// SetActive overrides the active policy, e.g. to start an experiment from
// a defined policy. It panics when p is not a candidate.
func (t *SelfTuner) SetActive(p policy.Policy) {
	for _, c := range t.candidates {
		if c == p {
			t.active = p
			return
		}
	}
	panic(fmt.Sprintf("core: SetActive(%v) is not a candidate", p))
}

// Active returns the currently active policy.
func (t *SelfTuner) Active() policy.Policy { return t.active }

// Decider returns the tuner's decider mechanism, letting callers
// discover optional capabilities (StatefulDecider, observers) on it.
func (t *SelfTuner) Decider() Decider { return t.decider }

// Candidates returns the candidate policies in canonical order.
func (t *SelfTuner) Candidates() []policy.Policy {
	return append([]policy.Policy(nil), t.candidates...)
}

// EnableTrace makes Plan record every Decision; retrieve them with Trace.
func (t *SelfTuner) EnableTrace() { t.traceOn = true }

// Trace returns the recorded decisions (nil unless EnableTrace was called).
func (t *SelfTuner) Trace() []Decision { return t.trace }

// LastDecision returns the most recent self-tuning decision and whether
// one has been made. Unlike Trace it is always available. The decision
// is a copy, Values included: the tuner rewrites its own in place at the
// next step.
func (t *SelfTuner) LastDecision() (Decision, bool) {
	d := t.last
	d.Values = slices.Clone(d.Values)
	return d, t.hasLast
}

// LastDecisionCase classifies the most recent decision as one of the
// paper's Table-1 cases (see CaseOf). It returns "" before the first
// decision or when the candidate set is not the paper's FCFS/SJF/LJF
// triple, whose value patterns the table enumerates.
func (t *SelfTuner) LastDecisionCase() string {
	if !t.hasLast || len(t.last.Values) != 3 {
		return ""
	}
	if t.candidates[0] != policy.FCFS || t.candidates[1] != policy.SJF || t.candidates[2] != policy.LJF {
		return ""
	}
	return CaseOf(t.last.Old, t.last.Values[0], t.last.Values[1], t.last.Values[2])
}

// Stats returns the aggregated decision statistics so far.
func (t *SelfTuner) Stats() Stats {
	s := t.stats
	s.Chosen = make(map[string]int, len(t.stats.Chosen))
	for k, v := range t.stats.Chosen {
		s.Chosen[k] = v
	}
	return s
}

// Plan performs one self-tuning dynP step: build a what-if schedule per
// candidate policy, let Choose score and decide, and return the schedule
// of the chosen policy (reused, not rebuilt). The chosen policy becomes
// active.
//
// Ownership: the returned schedule is valid until the next Plan call,
// which supersedes it once its replacement exists (the lifetime rule on
// engine.Driver). All planning storage is the lane's, rebuilt in place
// at every step (see Lane).
func (t *SelfTuner) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	return t.lane.Keep(t.Choose(now, t.lane.Build(now, capacity, running, waiting)))
}

// Choose is the deciding half of a self-tuning step: it scores the
// schedules of one scheduling event — one per candidate, in candidate
// order, as Lane.Build returns them — asks the decider, commits the
// decision (statistics, trace, active policy) and returns the index of
// the chosen schedule. Plan calls it on the tuner's own lane; a
// co-simulation (sim.RunGroup) calls it on a lane several tuners with
// the same candidates share, so each commits its decision exactly once.
//
// Choose panics — before touching any tuner state — when the decider
// returns a policy outside the candidate set.
func (t *SelfTuner) Choose(now int64, schedules []*plan.Schedule) int {
	if len(schedules) != len(t.candidates) {
		panic(fmt.Sprintf("core: Choose over %d schedules for %d candidates", len(schedules), len(t.candidates)))
	}
	values := slices.Grow(t.values[:0], len(schedules))[:len(schedules)]
	t.values = values
	for i, s := range schedules {
		values[i] = t.metric.Score(s)
	}

	chosen := t.decider.Decide(t.active, t.candidates, values)

	// Validate the decider's choice before mutating stats, trace or the
	// active policy, so a buggy custom decider (see examples/customdecider)
	// cannot leave the tuner with half-updated state.
	chosenIdx := -1
	for i, p := range t.candidates {
		if p == chosen {
			chosenIdx = i
			break
		}
	}
	if chosenIdx < 0 {
		panic(fmt.Sprintf("core: decider %s returned non-candidate %v", t.decider.Name(), chosen))
	}
	t.commit(now, chosen, values)
	return chosenIdx
}

// commit applies one decision to the tuner's statistics, trace and active
// policy. It copies values — into the last decision's storage, which each
// commit overwrites, and into a trace entry when tracing — so the caller
// may reuse the slice.
func (t *SelfTuner) commit(now int64, chosen policy.Policy, values []float64) {
	t.stats.Steps++
	t.stats.Chosen[chosen.Name()]++
	if chosen != t.active {
		t.stats.Switches++
	}
	t.last = Decision{Time: now, Old: t.active, Chosen: chosen,
		Values: append(t.last.Values[:0], values...)}
	t.hasLast = true
	if t.traceOn {
		t.trace = append(t.trace, Decision{
			Time: now, Old: t.active, Chosen: chosen,
			Values: append([]float64(nil), values...),
		})
	}
	t.active = chosen
}
