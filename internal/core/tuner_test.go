package core

import (
	"math"
	"testing"

	"dynp/internal/job"
	"dynp/internal/policy"
)

func mkJob(id job.ID, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

func TestNewSelfTunerDefaults(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	got := st.Candidates()
	if len(got) != 3 || got[0] != policy.FCFS || got[1] != policy.SJF || got[2] != policy.LJF {
		t.Fatalf("default candidates = %v", got)
	}
	if st.Active() != policy.FCFS {
		t.Fatalf("initial active = %v, want FCFS", st.Active())
	}
}

func TestNewSelfTunerPanicsOnNilDecider(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil decider accepted")
		}
	}()
	NewSelfTuner(nil, nil, MetricSLDwA)
}

func TestSetActive(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.SetActive(policy.LJF)
	if st.Active() != policy.LJF {
		t.Fatal("SetActive did not take effect")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetActive accepted a non-candidate")
		}
	}()
	st.SetActive(policy.SAF)
}

func TestPlanPicksSJFWhenClearlyBest(t *testing.T) {
	// One processor; a short and a very long job waiting. SJF's plan has
	// a strictly lower planned SLDwA, so any decider must pick SJF.
	waiting := []*job.Job{mkJob(1, 0, 1, 1000), mkJob(2, 0, 1, 10)}
	for _, d := range []Decider{Simple{}, Advanced{}, Preferred{Policy: policy.LJF}} {
		st := NewSelfTuner(nil, d, MetricSLDwA)
		s := st.Plan(0, 1, nil, waiting)
		if st.Active() != policy.SJF {
			t.Errorf("%s: active = %v, want SJF", d.Name(), st.Active())
		}
		if s.Policy != policy.SJF {
			t.Errorf("%s: returned schedule built with %v", d.Name(), s.Policy)
		}
	}
}

func TestPlanReturnsChosenSchedule(t *testing.T) {
	waiting := []*job.Job{mkJob(1, 0, 1, 1000), mkJob(2, 0, 1, 10)}
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	s := st.Plan(0, 1, nil, waiting)
	want := sorted(0, 1, waiting, policy.SJF)
	if len(s.Entries) != len(want.Entries) {
		t.Fatalf("schedule length mismatch")
	}
	for i := range s.Entries {
		if s.Entries[i].Job.ID != want.Entries[i].Job.ID ||
			s.Entries[i].Start != want.Entries[i].Start {
			t.Fatalf("entry %d differs from a fresh SJF build", i)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	waiting := []*job.Job{mkJob(1, 0, 1, 1000), mkJob(2, 0, 1, 10)}
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.Plan(0, 1, nil, waiting) // FCFS -> SJF: a switch
	st.Plan(5, 1, nil, waiting) // stays SJF
	got := st.Stats()
	if got.Steps != 2 {
		t.Errorf("Steps = %d, want 2", got.Steps)
	}
	if got.Switches != 1 {
		t.Errorf("Switches = %d, want 1", got.Switches)
	}
	if got.Chosen["SJF"] != 2 {
		t.Errorf("Chosen[SJF] = %d, want 2", got.Chosen["SJF"])
	}
	// Stats must be a copy.
	got.Chosen["SJF"] = 99
	if st.Stats().Chosen["SJF"] == 99 {
		t.Error("Stats leaked internal map")
	}
}

func TestTraceRecording(t *testing.T) {
	waiting := []*job.Job{mkJob(1, 0, 1, 1000), mkJob(2, 0, 1, 10)}
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.EnableTrace()
	st.Plan(7, 1, nil, waiting)
	tr := st.Trace()
	if len(tr) != 1 {
		t.Fatalf("trace length = %d", len(tr))
	}
	d := tr[0]
	if d.Time != 7 || d.Old != policy.FCFS || d.Chosen != policy.SJF || len(d.Values) != 3 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestEmptyQueueKeepsTies(t *testing.T) {
	// With no waiting jobs all policies score 0; the advanced decider
	// must stay with the old policy, the preferred decider must return
	// to its preferred policy.
	adv := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	adv.SetActive(policy.LJF)
	adv.Plan(0, 4, nil, nil)
	if adv.Active() != policy.LJF {
		t.Errorf("advanced switched on empty queue: %v", adv.Active())
	}
	pref := NewSelfTuner(nil, Preferred{Policy: policy.SJF}, MetricSLDwA)
	pref.SetActive(policy.LJF)
	pref.Plan(0, 4, nil, nil)
	if pref.Active() != policy.SJF {
		t.Errorf("preferred did not return to SJF on empty queue: %v", pref.Active())
	}
}

// rogueDecider returns a policy outside the candidate set, modelling a
// buggy custom decider (examples/customdecider shows a correct one).
type rogueDecider struct{}

func (rogueDecider) Name() string { return "rogue" }
func (rogueDecider) Decide(old policy.Policy, cs []policy.Policy, vs []float64) policy.Policy {
	return policy.SAF
}

// TestPlanRejectsRogueDeciderBeforeMutatingState: the panic must fire
// before stats, trace or the active policy are touched.
func TestPlanRejectsRogueDeciderBeforeMutatingState(t *testing.T) {
	st := NewSelfTuner(nil, rogueDecider{}, MetricSLDwA)
	st.EnableTrace()
	waiting := []*job.Job{mkJob(1, 0, 1, 10)}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("rogue decider accepted")
			}
		}()
		st.Plan(0, 1, nil, waiting)
	}()
	if got := st.Stats(); got.Steps != 0 || got.Switches != 0 || len(got.Chosen) != 0 {
		t.Fatalf("stats mutated by rogue decider: %+v", got)
	}
	if len(st.Trace()) != 0 {
		t.Fatal("trace recorded a rogue decision")
	}
	if st.Active() != policy.FCFS {
		t.Fatalf("active policy changed to %v by rogue decider", st.Active())
	}
}

func TestMetricScoreDispatch(t *testing.T) {
	a := mkJob(1, 0, 2, 10)
	b := mkJob(2, 0, 1, 40)
	s := sorted(0, 2, []*job.Job{a, b}, policy.FCFS)
	// a starts 0 (width 2)? capacity 2: a takes both, b waits to 10.
	checks := map[Metric]float64{
		MetricART:      ((0 + 10) + (10 + 40)) / 2.0,
		MetricAWT:      (0 + 10) / 2.0,
		MetricMakespan: 50,
	}
	for m, want := range checks {
		if got := m.Score(s); math.Abs(got-want) > 1e-9 {
			t.Errorf("%v.Score = %v, want %v", m, got, want)
		}
	}
	if MetricSLDwA.Score(s) <= 0 || MetricARTwW.Score(s) <= 0 {
		t.Error("weighted metrics must be positive on a non-empty plan")
	}
}

func TestMetricParseAndString(t *testing.T) {
	for _, m := range []Metric{MetricSLDwA, MetricART, MetricARTwW, MetricAWT, MetricMakespan} {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMetric(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMetric("bogus"); err == nil {
		t.Error("ParseMetric accepted junk")
	}
}
