package core

import (
	"slices"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// sorted builds the schedule of waiting under p from a full sort, on an
// idle machine.
func sorted(now int64, capacity int, waiting []*job.Job, p policy.Policy) *plan.Schedule {
	base := plan.BuildBasePooled(now, capacity, nil)
	defer base.Release()
	return plan.BuildFromOrdered(base, policy.Order(p, waiting), p)
}

// TestViewsFallBackOnPartialQueue covers the lane's two reasons to sort
// in full instead of trusting a view: Build is handed a filtered subset
// of the tracked queue (the engine's capacity-failure path), and Build is
// asked for a policy the view was not primed with.
func TestViewsFallBackOnPartialQueue(t *testing.T) {
	l := NewLane(policy.SJF)
	jobs := []*job.Job{mkJob(1, 0, 4, 100), mkJob(2, 0, 8, 50), mkJob(3, 0, 1, 10)}
	for _, j := range jobs {
		l.NoteSubmit(j)
	}
	subset := []*job.Job{jobs[0], jobs[2]} // job 2 withheld (too wide)
	got := l.Build(0, 4, nil, subset, policy.SJF)[0]
	if want := sorted(0, 4, subset, policy.SJF); !slices.Equal(got.Entries, want.Entries) {
		t.Fatalf("filtered queue planned from a stale view:\n%v\n%v", got.Entries, want.Entries)
	}
	l.Keep(0)
	got = l.Build(0, 8, nil, jobs, policy.LJF)[0]
	if want := sorted(0, 8, jobs, policy.LJF); got.Policy != policy.LJF || !slices.Equal(got.Entries, want.Entries) {
		t.Fatalf("LJF planned from the SJF view:\n%v\n%v", got.Entries, want.Entries)
	}
	if kept := l.Keep(0); kept != got {
		t.Fatal("Keep returned another schedule than Build's")
	}
}
