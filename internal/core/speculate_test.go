package core

import (
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// specTuner returns a tuner with speculation on and a contended scenario:
// two processors, one running job, three waiting jobs whose SJF and FCFS
// orders differ.
func specTuner(d Decider) (*SelfTuner, []plan.Running, []*job.Job) {
	st := NewSelfTuner(nil, d, MetricSLDwA)
	st.SetSpeculation(true)
	running := []plan.Running{{Job: mkJob(1, 0, 1, 100), Start: 0}}
	waiting := []*job.Job{mkJob(2, 0, 1, 500), mkJob(3, 5, 1, 10), mkJob(4, 7, 2, 50)}
	return st, running, waiting
}

// clone returns a fresh slice with the same elements — Speculate takes
// ownership of its slices, so predictions never share storage with the
// real Plan inputs.
func clone[T any](s []T) []T { return append([]T(nil), s...) }

func TestSpeculateHitMatchesRebuild(t *testing.T) {
	st, running, waiting := specTuner(Advanced{})
	st.Speculate(10, 2, clone(running), clone(waiting))
	s := st.Plan(10, 2, running, waiting)

	if got := st.SpecStats(); got.Dispatched != 1 || got.Hits != 1 || got.Misses != 0 || got.Cancelled != 0 {
		t.Fatalf("stats after hit = %+v", got)
	}

	// The consumed speculation must equal a from-scratch build of the
	// same step, entry for entry.
	ref := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	want := ref.Plan(10, 2, running, waiting)
	if st.Active() != ref.Active() {
		t.Fatalf("active = %v, reference = %v", st.Active(), ref.Active())
	}
	if len(s.Entries) != len(want.Entries) {
		t.Fatalf("schedule has %d entries, reference %d", len(s.Entries), len(want.Entries))
	}
	for i := range s.Entries {
		if s.Entries[i].Job != want.Entries[i].Job || s.Entries[i].Start != want.Entries[i].Start {
			t.Fatalf("entry %d = %+v, reference %+v", i, s.Entries[i], want.Entries[i])
		}
	}
}

func TestSpeculateMissPerCondition(t *testing.T) {
	cases := []struct {
		name string
		spec func(st *SelfTuner, running []plan.Running, waiting []*job.Job)
	}{
		{"time", func(st *SelfTuner, running []plan.Running, waiting []*job.Job) {
			st.Speculate(9, 2, clone(running), clone(waiting))
		}},
		{"capacity", func(st *SelfTuner, running []plan.Running, waiting []*job.Job) {
			st.Speculate(10, 3, clone(running), clone(waiting))
		}},
		{"waiting-length", func(st *SelfTuner, running []plan.Running, waiting []*job.Job) {
			st.Speculate(10, 2, clone(running), clone(waiting[:2]))
		}},
		{"waiting-element", func(st *SelfTuner, running []plan.Running, waiting []*job.Job) {
			w := clone(waiting)
			w[1] = mkJob(9, 5, 1, 10) // equal shape, different job
			st.Speculate(10, 2, clone(running), w)
		}},
		{"base-availability", func(st *SelfTuner, running []plan.Running, waiting []*job.Job) {
			// Predicted one fewer running job: more free processors over
			// [now, infinity), so EqualFrom rejects the speculative base.
			st.Speculate(10, 2, nil, clone(waiting))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, running, waiting := specTuner(Advanced{})
			tc.spec(st, running, waiting)
			s := st.Plan(10, 2, running, waiting)
			if s == nil {
				t.Fatal("Plan returned nil after a speculation miss")
			}
			if got := st.SpecStats(); got.Dispatched != 1 || got.Hits != 0 || got.Misses != 1 {
				t.Fatalf("stats = %+v, want one dispatched miss", got)
			}
			// The rebuild must be unaffected by the discarded speculation.
			ref := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
			if want := ref.Plan(10, 2, running, waiting); st.Active() != ref.Active() || len(s.Entries) != len(want.Entries) {
				t.Fatalf("miss fallback diverged from reference build")
			}
		})
	}
}

func TestSpeculateStaleIsDrainedAsMiss(t *testing.T) {
	st, running, waiting := specTuner(Advanced{})
	st.Speculate(10, 2, clone(running), clone(waiting))
	// A second prediction before any Plan supersedes the first; the
	// superseded build is drained and discarded.
	st.Speculate(11, 2, clone(running), clone(waiting))
	st.Plan(11, 2, running, waiting)
	if got := st.SpecStats(); got.Dispatched != 2 || got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("stats = %+v, want the superseded dispatch counted as a miss", got)
	}
}

func TestCancelSpeculation(t *testing.T) {
	st, running, waiting := specTuner(Advanced{})
	st.Speculate(10, 2, clone(running), clone(waiting))
	st.CancelSpeculation()
	st.CancelSpeculation() // idempotent
	if got := st.SpecStats(); got.Dispatched != 1 || got.Cancelled != 1 || got.Hits != 0 || got.Misses != 0 {
		t.Fatalf("stats = %+v, want one cancelled dispatch", got)
	}
	// The tuner plans normally afterwards.
	if s := st.Plan(10, 2, running, waiting); s == nil {
		t.Fatal("Plan failed after cancel")
	}
}

func TestSetSpeculationOffDrainsInFlight(t *testing.T) {
	st, running, waiting := specTuner(Advanced{})
	st.Speculate(10, 2, clone(running), clone(waiting))
	st.SetSpeculation(false)
	if st.SpeculationEnabled() {
		t.Fatal("speculation still enabled")
	}
	if got := st.SpecStats(); got.Cancelled != 1 {
		t.Fatalf("stats = %+v, want the in-flight build cancelled", got)
	}
	// Off means Speculate is a free no-op.
	st.Speculate(11, 2, clone(running), clone(waiting))
	if got := st.SpecStats(); got.Dispatched != 1 {
		t.Fatalf("disabled Speculate dispatched a build: %+v", got)
	}
}

// flipDecider switches its fixed choice between speculation dispatch and
// Plan — the adversarial model of an observer-driven decider reacting to
// pressure observed after the prediction was made.
type flipDecider struct{ pick policy.Policy }

func (d *flipDecider) Name() string { return "flip" }
func (d *flipDecider) Decide(_ policy.Policy, _ []policy.Policy, _ []float64) policy.Policy {
	return d.pick
}

func TestSpeculateHitSurvivesDeciderFlip(t *testing.T) {
	d := &flipDecider{pick: policy.FCFS}
	st, running, waiting := specTuner(d)
	st.Speculate(10, 2, clone(running), clone(waiting))
	d.pick = policy.LJF // the decider changes its mind after dispatch
	s := st.Plan(10, 2, running, waiting)

	// Every candidate's schedule is still alive at decision time, so the
	// flip selects a different prebuilt schedule — a hit, not a miss.
	if got := st.SpecStats(); got.Hits != 1 || got.Misses != 0 {
		t.Fatalf("stats = %+v, want the flipped decision served from the speculation", got)
	}
	if st.Active() != policy.LJF || s.Policy != policy.LJF {
		t.Fatalf("active = %v, schedule policy = %v, want LJF", st.Active(), s.Policy)
	}
	want := plan.BuildFrom(plan.BuildBase(10, 2, running), waiting, policy.LJF)
	if len(s.Entries) != len(want.Entries) {
		t.Fatalf("schedule has %d entries, fresh LJF build %d", len(s.Entries), len(want.Entries))
	}
	for i := range s.Entries {
		if s.Entries[i].Job != want.Entries[i].Job || s.Entries[i].Start != want.Entries[i].Start {
			t.Fatalf("entry %d = %+v, fresh LJF build %+v", i, s.Entries[i], want.Entries[i])
		}
	}
}

// TestSpeculationSequenceEquivalence drives one tuner through a sequence
// of planning steps with predictions of mixed quality and checks the
// decisions equal a speculation-free tuner's at every step — the
// single-tuner version of the sim-level byte-identity matrix.
func TestSpeculationSequenceEquivalence(t *testing.T) {
	st, _, _ := specTuner(Advanced{})
	ref := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.EnableTrace()
	ref.EnableTrace()

	jobs := []*job.Job{
		mkJob(1, 0, 1, 100), mkJob(2, 0, 1, 500), mkJob(3, 5, 1, 10),
		mkJob(4, 7, 2, 50), mkJob(5, 12, 1, 300), mkJob(6, 20, 2, 40),
	}
	waiting := jobs[:3]
	for step, now := range []int64{0, 10, 20, 35, 60} {
		if step > 0 && step%2 == 1 {
			// Odd steps get an accurate prediction, even steps a stale or
			// absent one — the mixed regime of a real event stream.
			st.Speculate(now, 2, nil, clone(waiting))
		}
		s := st.Plan(now, 2, nil, waiting)
		r := ref.Plan(now, 2, nil, waiting)
		if st.Active() != ref.Active() {
			t.Fatalf("step %d: active %v, reference %v", step, st.Active(), ref.Active())
		}
		if len(s.Entries) != len(r.Entries) {
			t.Fatalf("step %d: %d entries, reference %d", step, len(s.Entries), len(r.Entries))
		}
		for i := range s.Entries {
			if s.Entries[i].Job != r.Entries[i].Job || s.Entries[i].Start != r.Entries[i].Start {
				t.Fatalf("step %d entry %d diverged", step, i)
			}
		}
		if step+3 < len(jobs) {
			waiting = jobs[step+1 : step+4]
		}
	}
	if st.SpecStats().Dispatched == 0 {
		t.Fatal("sequence never speculated")
	}
}
