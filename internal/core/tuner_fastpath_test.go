package core

import (
	"reflect"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/rng"
)

// TestIncrementalViewsMatchFallback drives two tuners through the same
// churning waiting queue — one hearing every NoteSubmit/NoteRemove, one
// hearing nothing (full re-sorts every step) — and requires byte-identical
// schedules, choices, traces and statistics.
func TestIncrementalViewsMatchFallback(t *testing.T) {
	const capacity = 32
	r := rng.New(11)
	for _, d := range []Decider{Simple{}, Advanced{}, Preferred{Policy: policy.SJF}} {
		tracked := NewSelfTuner(nil, d, MetricSLDwA)
		plain := NewSelfTuner(nil, d, MetricSLDwA)
		tracked.EnableTrace()
		plain.EnableTrace()

		var waiting []*job.Job
		nextID := job.ID(1)
		now := int64(0)
		for step := 0; step < 40; step++ {
			now += int64(r.Intn(50))
			// Churn: a few submissions, a few departures.
			for k := r.Intn(4); k > 0; k-- {
				est := int64(1 + r.Intn(5000))
				j := &job.Job{ID: nextID, Submit: now - int64(r.Intn(20)),
					Width: 1 + r.Intn(capacity), Estimate: est, Runtime: est}
				nextID++
				waiting = append(waiting, j)
				tracked.NoteSubmit(j)
			}
			for k := r.Intn(3); k > 0 && len(waiting) > 0; k-- {
				i := r.Intn(len(waiting))
				j := waiting[i]
				waiting = append(waiting[:i], waiting[i+1:]...)
				tracked.NoteRemove(j)
			}
			a := tracked.Plan(now, capacity, nil, waiting)
			b := plain.Plan(now, capacity, nil, waiting)
			if a.Policy != b.Policy || !reflect.DeepEqual(a.Entries, b.Entries) {
				t.Fatalf("%s step %d: tracked and plain schedules differ", d.Name(), step)
			}
		}
		if !reflect.DeepEqual(tracked.Trace(), plain.Trace()) {
			t.Fatalf("%s: traces differ", d.Name())
		}
		if !reflect.DeepEqual(tracked.Stats(), plain.Stats()) {
			t.Fatalf("%s: stats differ", d.Name())
		}
		// The fast path must actually have been live at the end.
		if tracked.views.Covering(waiting) == nil {
			t.Fatalf("%s: incremental views not authoritative after clean tracking", d.Name())
		}
		if plain.views.Covering(waiting) != nil {
			t.Fatalf("%s: untracked tuner claims authoritative views", d.Name())
		}
	}
}

// TestViewsFallBackOnPartialQueue covers the engine's capacity-failure
// path: Plan is handed a filtered subset of the tracked queue and must
// fall back to full sorts instead of planning with stale views.
func TestViewsFallBackOnPartialQueue(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	jobs := []*job.Job{mkJob(1, 0, 4, 100), mkJob(2, 0, 8, 50), mkJob(3, 0, 1, 10)}
	for _, j := range jobs {
		st.NoteSubmit(j)
	}
	subset := []*job.Job{jobs[0], jobs[2]} // job 2 withheld (too wide)
	if st.views.Covering(subset) != nil {
		t.Fatal("views claimed authority over a filtered queue")
	}
	sched := st.Plan(0, 4, nil, subset)
	want := plan.BuildFrom(plan.BuildBase(0, 4, nil), subset, sched.Policy)
	if !reflect.DeepEqual(sched.Entries, want.Entries) {
		t.Fatalf("fallback schedule differs from direct build:\n%v\n%v", sched.Entries, want.Entries)
	}
}

func TestNoteRemoveUnknownIgnored(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.NoteRemove(mkJob(9, 0, 1, 10)) // before tracking starts: no-op
	a := mkJob(1, 0, 1, 10)
	st.NoteSubmit(a)
	st.NoteRemove(mkJob(2, 0, 1, 10)) // never submitted: no-op
	if got := st.views.Covering([]*job.Job{a}); got == nil {
		t.Fatal("stray NoteRemove disturbed the views")
	}
}

func TestNoteSubmitReplacesLiveID(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	a := mkJob(1, 0, 1, 10)
	st.NoteSubmit(a)
	b := mkJob(1, 5, 2, 20) // same ID, different object
	st.NoteSubmit(b)
	if st.views.Covering([]*job.Job{b}) == nil {
		t.Fatal("replacement job not tracked")
	}
	if st.views.Covering([]*job.Job{a}) != nil {
		t.Fatal("stale job still tracked after ID reuse")
	}
	for _, v := range st.views.Covering([]*job.Job{b}) {
		if len(v) != 1 || v[0] != b {
			t.Fatalf("view holds %v, want just the replacement", v)
		}
	}
}

// TestMemoHitReusesSchedule pins the memoization fast path: when nothing
// observable changed between two events — same queue, same availability
// from the new instant on, no planned start overtaken — Plan returns the
// very same schedule object, advanced to the new Now, with statistics and
// trace moving exactly as a rebuild's would.
func TestMemoHitReusesSchedule(t *testing.T) {
	const capacity = 8
	// The machine is fully blocked until t=2000, so every planned start
	// is >= 2000 and instants 1000 and 1500 see identical futures.
	running := []plan.Running{{Job: mkJob(1, 0, capacity, 2000), Start: 0}}
	waiting := []*job.Job{mkJob(10, 900, 2, 300), mkJob(11, 950, 4, 100), mkJob(12, 980, 1, 700)}

	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.EnableTrace()
	first := st.Plan(1000, capacity, running, waiting)
	second := st.Plan(1500, capacity, running, waiting)
	if first != second {
		t.Fatal("memoizable event rebuilt: different schedule object returned")
	}
	if second.Now != 1500 {
		t.Fatalf("memo hit left Now at %d, want 1500", second.Now)
	}

	// A rebuild at 1500 must agree entry for entry and value for value.
	control := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	control.EnableTrace()
	control.Plan(1000, capacity, running, waiting)
	control.prevValid = false // force the rebuild path
	rebuilt := control.Plan(1500, capacity, running, waiting)
	if first == rebuilt {
		t.Fatal("control did not rebuild")
	}
	if !reflect.DeepEqual(second.Entries, rebuilt.Entries) || second.Policy != rebuilt.Policy {
		t.Fatal("memoized schedule differs from rebuild")
	}
	if !reflect.DeepEqual(st.Trace(), control.Trace()) {
		t.Fatalf("memo trace %v differs from rebuild trace %v", st.Trace(), control.Trace())
	}
	if !reflect.DeepEqual(st.Stats(), control.Stats()) {
		t.Fatalf("memo stats %+v differ from rebuild stats %+v", st.Stats(), control.Stats())
	}
}

// TestMemoMissOnChange enumerates the invalidation conditions: any
// observable change must force a rebuild that reflects it.
func TestMemoMissOnChange(t *testing.T) {
	const capacity = 8
	running := []plan.Running{{Job: mkJob(1, 0, capacity, 2000), Start: 0}}
	waiting := []*job.Job{mkJob(10, 900, 2, 300), mkJob(11, 950, 4, 100)}

	t.Run("queue-grew", func(t *testing.T) {
		st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
		first := st.Plan(1000, capacity, running, waiting)
		grown := append(append([]*job.Job(nil), waiting...), mkJob(12, 1100, 1, 50))
		second := st.Plan(1500, capacity, running, grown)
		if first == second {
			t.Fatal("queue growth did not invalidate the memo")
		}
		if len(second.Entries) != 3 {
			t.Fatalf("rebuild has %d entries, want 3", len(second.Entries))
		}
	})
	t.Run("availability-changed", func(t *testing.T) {
		st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
		st.Plan(1000, capacity, running, waiting)
		// The running job vanished early: the machine is free from 1500.
		second := st.Plan(1500, capacity, nil, waiting)
		for _, e := range second.Entries {
			if e.Start >= 2000 {
				t.Fatalf("entry %v still waits for the departed job", e)
			}
		}
	})
	t.Run("start-overtaken", func(t *testing.T) {
		// A planned start at 2000 is in the past of an event at 2500: the
		// retained plan is unusable even though the queue is unchanged.
		st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
		first := st.Plan(1000, capacity, running, waiting)
		second := st.Plan(2500, capacity, nil, waiting)
		if first == second {
			t.Fatal("overtaken start did not invalidate the memo")
		}
		for _, e := range second.Entries {
			if e.Start < 2500 {
				t.Fatalf("rebuilt entry %v starts before now", e)
			}
		}
	})
	t.Run("capacity-changed", func(t *testing.T) {
		st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
		first := st.Plan(1000, capacity, running, waiting)
		second := st.Plan(1500, capacity-4, nil, waiting)
		if first == second {
			t.Fatal("capacity change did not invalidate the memo")
		}
	})
}
