package core

import (
	"fmt"

	"dynp/internal/job"
	"dynp/internal/plan"
)

// Speculative cross-event planning: the pipeline that lets one
// simulation overlap the next scheduling event's what-if builds with the
// current event's bookkeeping.
//
// A virtual-clock front end knows its next scheduling event
// deterministically — the next submission is in the job set, the next
// completion was scheduled when the job launched — so right after one
// planning step commits it can predict the *inputs* of the next Plan
// call exactly: the instant, the capacity, the post-event running set
// and the post-event waiting queue. Speculate takes that prediction and
// builds the whole what-if state on a worker goroutine (base
// availability profile, one candidate schedule per policy, fused metric
// scores) while the front end's main goroutine applies the event's
// bookkeeping. The next Plan call then verifies the prediction against
// the real inputs — same instant, same capacity, elementwise-identical
// waiting queue, and a base profile equal over [now, infinity) — and on
// a hit consumes the prebuilt schedules; on a miss it discards them and
// rebuilds from scratch, so correctness never depends on prediction
// quality. This is the memoization discipline of tryMemo extended
// across events and across goroutines.
//
// What is deliberately NOT speculated is the decision itself: the
// decider always runs on the main goroutine at commit time, against the
// tuner's live state. An observer-driven decider (internal/adaptive)
// may change its mind between the prediction and the event — queue
// pressure observed in the meantime can flip it — and because every
// candidate's schedule is still alive at that point, a flip simply
// selects a different prebuilt schedule instead of invalidating the
// speculation. Statistics, traces and the activation sequence are
// byte-identical to the sequential path.
//
// Concurrency and determinism: the worker reads only immutable state —
// the candidate set, the metric, job fields (never mutated after
// construction) and the prediction slices, whose ownership transfers to
// the tuner at Speculate. It does not touch the tuner's incremental
// order views (main-goroutine property; the worker re-sorts from
// scratch, byte-identical because every policy order is total), the
// decider, or any profile retained by the memo path. Results cross back
// over a buffered channel, whose send/receive pair orders the worker's
// writes before the main goroutine's reads. At most one speculation is
// in flight per tuner: a new Speculate first drains and discards an
// unconsumed predecessor.

// SpecStats counts the speculative pipeline's outcomes. Monitoring
// state only — it is not part of checkpoints and never influences
// decisions.
type SpecStats struct {
	// Dispatched counts speculative builds started.
	Dispatched int
	// Hits counts speculations consumed by Plan after full verification.
	Hits int
	// Misses counts speculations discarded because the prediction did
	// not match the real event (or was superseded before any Plan call).
	Misses int
	// Cancelled counts speculations discarded by CancelSpeculation —
	// typically the in-flight build at the end of a run.
	Cancelled int
}

// HitRate returns Hits over Dispatched (0 before the first dispatch).
func (s SpecStats) HitRate() float64 {
	if s.Dispatched == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Dispatched)
}

// specResult is one completed speculative build awaiting verification.
// Everything in it is owned by the worker until the channel hands it to
// the main goroutine; the pooled pieces (base, schedules) are released
// by exactly one of trySpec (hit: losers via saveMemo), discardSpec
// (miss) or CancelSpeculation.
type specResult struct {
	now       int64
	capacity  int
	waiting   []*job.Job
	base      *plan.Base
	schedules []*plan.Schedule
	values    []float64
}

// SetSpeculation toggles the speculative cross-event planning pipeline.
// Off (the default — the online RMS cannot predict wall-clock arrivals,
// so it would pay for misses only), Speculate is a no-op and Plan never
// spawns a goroutine. Turning it off drains any in-flight build.
func (t *SelfTuner) SetSpeculation(on bool) {
	if !on {
		t.CancelSpeculation()
	}
	t.specOn = on
}

// SpeculationEnabled reports whether Speculate currently accepts
// predictions. Front ends check it before paying for the prediction
// snapshots (see engine.Lookaheader).
func (t *SelfTuner) SpeculationEnabled() bool { return t.specOn }

// SpecStats returns the speculative pipeline's outcome counters.
func (t *SelfTuner) SpecStats() SpecStats { return t.specStats }

// Speculate hands the tuner the predicted inputs of the next Plan call
// and starts building the corresponding what-if state on a worker
// goroutine. Ownership of the running and waiting slices transfers to
// the tuner: the caller must not reuse or mutate them (the jobs they
// point to are shared but immutable). A previously dispatched,
// still-unconsumed speculation is drained and discarded first, so at
// most one build is ever in flight.
//
// Speculate must be called from the same goroutine that calls Plan.
func (t *SelfTuner) Speculate(now int64, capacity int, running []plan.Running, waiting []*job.Job) {
	if !t.specOn {
		return
	}
	if res := t.drainSpec(); res != nil {
		t.specStats.Misses++
		t.discardSpec(res)
	}
	t.specStats.Dispatched++
	ch := make(chan *specResult, 1)
	t.specCh = ch
	candidates, metric, workers := t.candidates, t.metric, t.Workers()
	go func() {
		base := plan.BuildBasePooled(now, capacity, running)
		schedules := make([]*plan.Schedule, len(candidates))
		values := make([]float64, len(candidates))
		buildCandidates(candidates, metric, base, waiting, nil, workers, schedules, values)
		ch <- &specResult{now: now, capacity: capacity, waiting: waiting,
			base: base, schedules: schedules, values: values}
	}()
}

// CancelSpeculation drains and discards any in-flight speculative
// build. Front ends call it once when no further Plan call will consume
// a prediction (the end of a simulation run); it is idempotent.
func (t *SelfTuner) CancelSpeculation() {
	if res := t.drainSpec(); res != nil {
		t.specStats.Cancelled++
		t.discardSpec(res)
	}
}

// drainSpec receives the pending speculative result, blocking until the
// worker finishes (builds are microseconds; the block replaces the full
// rebuild the caller would otherwise run). nil when none is in flight.
func (t *SelfTuner) drainSpec() *specResult {
	if t.specCh == nil {
		return nil
	}
	res := <-t.specCh
	t.specCh = nil
	return res
}

// discardSpec returns a rejected speculation's pooled storage to the
// plan arenas. The release-exactly-once discipline of plan.Schedule and
// plan.Base carries across the goroutine handoff: the worker built them,
// the channel transferred ownership, and only the owner releases.
func (t *SelfTuner) discardSpec(res *specResult) {
	res.base.Release()
	plan.ReleaseSchedules(res.schedules)
}

// trySpec consumes a pending speculative build when its prediction
// matches the real event. The verification mirrors tryMemo's proof
// obligations, condition for condition:
//
//   - the predicted instant and capacity equal the real ones;
//   - the predicted waiting queue is elementwise identical to the real
//     one (identical jobs => identical total policy orders => identical
//     placement sequences);
//   - the speculative base promises the same free processors as the
//     real base over [now, infinity) (EqualFrom) — the running sets may
//     differ representationally (a completion exactly at its estimate),
//     but the placement recursion only ever reads availability from now
//     on.
//
// Under those conditions every speculative schedule is byte-identical
// to the one a rebuild would produce, including the fused float
// aggregates (same accumulation order), so the decider — run here, on
// live tuner state — sees bit-exact scores. Whatever candidate it picks
// is available: unlike the memo path, no schedule has been released
// yet, so a decider flip (an observer-driven decider reacting to
// pressure observed since the prediction) is served from the
// speculation, not a reason to discard it.
//
// On a hit the real base is retained for the next event's memo check
// and the speculative one released; on a miss everything speculative is
// discarded and the caller rebuilds.
func (t *SelfTuner) trySpec(now int64, capacity int, base *plan.Base, waiting []*job.Job) *plan.Schedule {
	res := t.drainSpec()
	if res == nil {
		return nil
	}
	if !t.specMatches(res, now, capacity, base, waiting) {
		t.specStats.Misses++
		t.discardSpec(res)
		return nil
	}
	t.specStats.Hits++
	res.base.Release()

	chosen := t.decider.Decide(t.active, t.candidates, res.values)
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

	// The previous event's memo state is superseded exactly as on a full
	// rebuild: release its base before saveMemo retains the new one.
	t.dropMemoBase()
	t.commit(now, chosen, res.values)
	t.saveMemo(now, capacity, base, waiting, res.schedules, chosenIdx, res.values)
	return res.schedules[chosenIdx]
}

// specMatches is trySpec's verification predicate.
func (t *SelfTuner) specMatches(res *specResult, now int64, capacity int, base *plan.Base, waiting []*job.Job) bool {
	if res.now != now || res.capacity != capacity || len(res.waiting) != len(waiting) {
		return false
	}
	for i, j := range waiting {
		if res.waiting[i] != j {
			return false
		}
	}
	return base.EqualFrom(res.base, now)
}
