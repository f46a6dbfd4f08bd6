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
