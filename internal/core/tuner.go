package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
//
// Two allocation-lean fast paths engage automatically and never change a
// single byte of the schedules, decisions, statistics or traces:
//
//   - Incremental policy orders. A front end that reports every waiting
//     queue change through NoteSubmit/NoteRemove (the scheduling engine
//     does, via engine.QueueTracker) keeps one sorted view per candidate
//     policy spliced up to date (policy.Views), so Plan skips the
//     per-candidate O(n log n) re-sort. Plan verifies the views cover
//     exactly the waiting slice it was handed and silently falls back to
//     full sorts when they do not (e.g. when the engine withholds
//     unplaceable jobs during a capacity failure).
//
//   - Plan memoization. When an event provably cannot change the what-if
//     schedules — the waiting queue is the same, the availability profile
//     promises the same processors from the new instant on (a completion
//     exactly at its estimate), and every retained planned start is still
//     in the future — Plan reuses the previous candidate schedules,
//     re-scores them from their fused aggregates and re-runs the decider,
//     instead of rebuilding. Statistics and traces advance exactly as a
//     rebuild would.
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
	workers    int // bound on concurrent candidate builds; <= 1 = sequential

	// Incrementally maintained per-candidate orders of the waiting queue,
	// fed by NoteSubmit/NoteRemove.
	views *policy.Views

	// Memoization of the previous event's planning step. prevChosen is
	// also the schedule handed to the caller: it goes back to the plan
	// pools when the next rebuild replaces it (saveMemo), never on a memo
	// hit, which hands the same object out again. The losing candidates
	// never escape and are released every step.
	schedBuf      []*plan.Schedule // reused result slots of one step
	prevValid     bool
	prevNow       int64
	prevCap       int
	prevBase      *plan.Base // retained for availability comparison; pooled
	prevWaiting   []*job.Job // reused snapshot of the planned waiting slice
	prevChosen    *plan.Schedule
	prevChosenIdx int
	prevValues    []float64
	prevMaxEnds   []int64 // per-candidate MaxEstimatedEnd, for re-scoring makespan
	prevMinStart  int64   // min planned start over all candidates' entries

	// Speculative cross-event planning (see speculate.go). specCh is
	// non-nil exactly while one speculative build is in flight.
	specOn    bool
	specCh    chan *specResult
	specStats SpecStats
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
		workers:    1,
		views:      policy.NewViews(cs...),
	}
}

// SetWorkers bounds the number of goroutines Plan uses to build and score
// the candidate what-if schedules of one self-tuning step. n == 1 (the
// default) keeps planning on the caller's goroutine; n <= 0 selects
// runtime.GOMAXPROCS(0). The effective bound never exceeds the candidate
// count or GOMAXPROCS. Schedules, scores, decisions and statistics are
// identical for every worker count: each candidate writes into its fixed
// slot and the decider always sees the values in canonical candidate
// order, so its tie-breaks are unchanged.
func (t *SelfTuner) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	t.workers = n
}

// Workers returns the configured worker bound (see SetWorkers).
func (t *SelfTuner) Workers() int {
	if t.workers < 1 {
		return 1
	}
	return t.workers
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
// one has been made. Unlike Trace it is always available.
func (t *SelfTuner) LastDecision() (Decision, bool) { return t.last, t.hasLast }

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

// NoteSubmit tells the tuner a job entered the waiting queue. From the
// first call on every queue change must be reported (NoteRemove on start
// or cancel) for the order views to stay authoritative — Plan
// cross-checks them against the waiting slice it is handed and falls
// back to full sorts on any mismatch, so a missed notification costs
// speed, never correctness.
func (t *SelfTuner) NoteSubmit(j *job.Job) { t.views.Insert(j) }

// NoteRemove tells the tuner a job left the waiting queue (it started,
// finished or was cancelled). Unknown jobs are ignored.
func (t *SelfTuner) NoteRemove(j *job.Job) { t.views.Remove(j) }

// Plan performs one self-tuning dynP step: build a what-if schedule per
// candidate policy, score each, decide, and return the schedule of the
// chosen policy (reused, not rebuilt). The chosen policy becomes active.
//
// The running-job availability profile is built once and shared by all
// candidate builds; with SetWorkers(n > 1) the builds and scoring fan out
// over a bounded worker pool. Plan panics — before touching any tuner
// state — when the decider returns a policy outside the candidate set.
//
// Ownership: the returned schedule is valid until the next Plan call
// that rebuilds, which releases it to the plan pools once its replacement
// exists; a memo hit hands the same live object out again. All other
// planning storage (candidate profiles, losing schedules, base profiles)
// cycles through the same pools within the step.
func (t *SelfTuner) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	base := plan.BuildBasePooled(now, capacity, running)

	// A verified speculative build (see speculate.go) short-circuits the
	// whole step; tryMemo only runs when no speculation matched, so the
	// two fast paths never double-consume an event.
	if s := t.trySpec(now, capacity, base, waiting); s != nil {
		return s
	}
	if s := t.tryMemo(now, capacity, base, waiting); s != nil {
		return s
	}

	t.dropMemoBase()

	n := len(t.candidates)
	if cap(t.schedBuf) < n {
		t.schedBuf = make([]*plan.Schedule, n)
	}
	schedules := t.schedBuf[:n]
	values := make([]float64, n)
	buildCandidates(t.candidates, t.metric, base, waiting, t.views.Covering(waiting),
		t.Workers(), schedules, values)
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
	t.saveMemo(now, capacity, base, waiting, schedules, chosenIdx, values)
	return schedules[chosenIdx]
}

// buildCandidates fills schedules and values (parallel to candidates)
// with one pooled what-if schedule and fused metric score per candidate,
// all derived from the shared base. ordered, when non-nil, supplies each
// candidate's pre-ordered waiting view (the incremental splice path);
// otherwise every build sorts waiting itself — byte-identical output
// either way, because the policy orders are total. workers bounds the
// fan-out; each candidate writes only its fixed slot, so the results are
// identical at any worker count. It is the one build loop shared by the
// rebuild path of Plan and the speculative worker (Speculate), which is
// what makes a verified speculation byte-for-byte a rebuild.
func buildCandidates(candidates []policy.Policy, metric Metric, base *plan.Base,
	waiting []*job.Job, ordered [][]*job.Job, workers int,
	schedules []*plan.Schedule, values []float64) {
	build := func(i int) {
		if ordered != nil {
			schedules[i] = plan.BuildFromOrdered(base, ordered[i], candidates[i])
		} else {
			schedules[i] = plan.BuildFromPooled(base, waiting, candidates[i])
		}
		values[i] = metric.Score(schedules[i])
	}
	n := len(candidates)
	if workers > n {
		workers = n
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					build(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			build(i)
		}
	}
}

// commit applies one decision to the tuner's statistics, trace and active
// policy. values must be a fresh slice (it is retained by LastDecision).
func (t *SelfTuner) commit(now int64, chosen policy.Policy, values []float64) {
	t.stats.Steps++
	t.stats.Chosen[chosen.Name()]++
	if chosen != t.active {
		t.stats.Switches++
	}
	// values is built fresh every step and escapes only here, so the
	// last decision can retain it without a copy.
	t.last = Decision{Time: now, Old: t.active, Chosen: chosen, Values: values}
	t.hasLast = true
	if t.traceOn {
		t.trace = append(t.trace, Decision{
			Time: now, Old: t.active, Chosen: chosen,
			Values: append([]float64(nil), values...),
		})
	}
	t.active = chosen
}

// dropMemoBase invalidates the memoized step and releases its base: a
// rebuild or a consumed speculation is about to replace both.
func (t *SelfTuner) dropMemoBase() {
	if t.prevBase != nil {
		t.prevBase.Release()
		t.prevBase = nil
	}
	t.prevValid = false
}

// saveMemo retains everything the next event needs to prove (or refute)
// that rebuilding would reproduce this event's schedules, then releases
// the losing candidates' storage and the chosen schedule of the previous
// step, which the one returned now supersedes. The aggregates needed for
// re-scoring are copied out first: a released schedule may be handed to
// any other build — including one in a concurrently running simulation —
// at any moment.
func (t *SelfTuner) saveMemo(now int64, capacity int, base *plan.Base, waiting []*job.Job, schedules []*plan.Schedule, chosenIdx int, values []float64) {
	n := len(schedules)
	if cap(t.prevMaxEnds) < n {
		t.prevMaxEnds = make([]int64, n)
	}
	t.prevMaxEnds = t.prevMaxEnds[:n]
	t.prevMinStart = math.MaxInt64
	for i, s := range schedules {
		t.prevMaxEnds[i] = s.MaxEstimatedEnd()
		if ms := s.MinStart(); ms < t.prevMinStart {
			t.prevMinStart = ms
		}
	}
	for i, s := range schedules {
		if i != chosenIdx {
			s.Release()
			schedules[i] = nil
		}
	}
	if t.prevChosen != nil {
		t.prevChosen.Release()
	}
	t.prevValid = true
	t.prevNow, t.prevCap = now, capacity
	t.prevBase = base
	t.prevWaiting = append(t.prevWaiting[:0], waiting...)
	t.prevChosen, t.prevChosenIdx = schedules[chosenIdx], chosenIdx
	t.prevValues = values
}

// tryMemo reuses the previous event's planning step when rebuilding is
// provably redundant. The conditions, each required for the proof that a
// rebuild reproduces the retained schedules byte-for-byte:
//
//   - same capacity and a non-empty, elementwise-identical waiting slice
//     (identical jobs => identical policy orders);
//   - every retained planned start is >= the new instant (no entry has
//     silently slipped into the past);
//   - the new base profile equals the previous one over [now, infinity)
//     (the machine promises the same future availability — e.g. the only
//     change since the last event is a completion exactly at its
//     estimate, whose reservation the planner had already written off).
//
// Under those conditions every candidate's placement recursion visits the
// same profile states and produces the same entries, so the fused scores
// are reusable as-is (re-derived from the retained max estimated ends for
// the Now-relative makespan metric). The decider is re-run on those
// scores — its tie-breaks may consult the active policy, which a rebuild
// would also see — and on the standard deciders it provably re-selects
// the retained choice; if a custom decider picks another candidate, whose
// schedule is already released, tryMemo reports a miss and the full
// rebuild supplies it.
func (t *SelfTuner) tryMemo(now int64, capacity int, base *plan.Base, waiting []*job.Job) *plan.Schedule {
	if !t.prevValid || capacity != t.prevCap || now < t.prevNow ||
		len(waiting) == 0 || len(waiting) != len(t.prevWaiting) ||
		t.prevMinStart < now {
		return nil
	}
	for i, j := range waiting {
		if t.prevWaiting[i] != j {
			return nil
		}
	}
	if !base.EqualFrom(t.prevBase, now) {
		return nil
	}

	values := make([]float64, len(t.candidates))
	if t.metric == MetricMakespan {
		for i, end := range t.prevMaxEnds {
			if end != 0 {
				values[i] = float64(end - now)
			}
		}
	} else {
		copy(values, t.prevValues)
	}
	chosen := t.decider.Decide(t.active, t.candidates, values)
	if chosen != t.candidates[t.prevChosenIdx] {
		return nil
	}

	t.commit(now, chosen, values)
	t.prevChosen.Now = now
	t.prevBase.Release()
	t.prevBase = base
	t.prevNow = now
	t.prevValues = values
	return t.prevChosen
}
