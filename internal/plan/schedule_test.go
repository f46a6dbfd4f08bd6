package plan

import (
	"testing"

	"dynp/internal/job"
	"dynp/internal/policy"
)

// TestEmptyScheduleConventions: a schedule with no entries scores 0 on
// every accessor.
func TestEmptyScheduleConventions(t *testing.T) {
	s := &Schedule{Now: 10, Capacity: 4}
	if s.PlannedSLDwA() != 0 || s.PlannedART() != 0 || s.PlannedARTwW() != 0 ||
		s.PlannedAWT() != 0 || s.PlannedMakespan() != 0 {
		t.Fatal("an empty schedule must score 0")
	}
	if s.MaxEstimatedEnd() != 0 {
		t.Fatalf("empty MaxEstimatedEnd = %d, want 0", s.MaxEstimatedEnd())
	}
}

// TestScheduleDoubleReleasePanics: an owner marks each build superseded
// once; a second mark means it lost track of its slots. A rebuild clears
// the mark.
func TestScheduleDoubleReleasePanics(t *testing.T) {
	var base Base
	base.Reset(0, 8, nil)
	var s Schedule
	ss, orders, policies := []*Schedule{&s}, make([][]*job.Job, 1), []policy.Policy{policy.FCFS}
	base.BuildInto(ss, orders, policies)
	s.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Schedule.Release did not panic")
			}
		}()
		s.Release()
	}()
	base.BuildInto(ss, orders, policies)
	if s.Released() {
		t.Fatal("a rebuilt schedule still reads as released")
	}
	s.Release()
}

// TestCompleteAfterNextBuildPanics: the jobs a frontier build leaves
// unplaced resume its scratch profile, which the base's next build —
// frontier or whole — rebuilds, so completing the older schedule after it
// panics; so does completing a released one. The newest build completes.
func TestCompleteAfterNextBuildPanics(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, Width: 8, Estimate: 10},
		{ID: 2, Width: 8, Estimate: 10}, // cannot start at 0 behind job 1
	}
	mustPanic := func(what string, s *Schedule) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Complete %s did not panic", what)
			}
		}()
		s.Complete()
	}
	var base Base
	base.Reset(0, 8, nil)
	var old, next Schedule
	base.FrontierInto(&old, jobs, policy.FCFS)
	if len(old.Entries) != 1 {
		t.Fatalf("frontier build placed %d jobs, want 1", len(old.Entries))
	}
	base.FrontierInto(&next, jobs, policy.FCFS)
	mustPanic("after the next frontier build", &old)
	next.Complete()
	if len(next.Entries) != 2 || next.Entries[1].Start != 10 {
		t.Fatalf("completed plan %v, want job 2 at 10 behind job 1", next.Entries)
	}

	base.FrontierInto(&old, jobs, policy.FCFS)
	base.BuildInto([]*Schedule{&next}, [][]*job.Job{jobs}, []policy.Policy{policy.FCFS})
	mustPanic("after the next whole build", &old)

	base.FrontierInto(&old, jobs, policy.FCFS)
	old.Release()
	mustPanic("after Release", &old)
}
