package plan

import (
	"testing"

	"dynp/internal/job"
	"dynp/internal/policy"
)

// TestFusedScoresMatchWalked compares the fused (accumulated during
// placement) scores against the walking fallback, which an unscored copy
// of the same schedule exercises. Byte equality required, not tolerance.
func TestFusedScoresMatchWalked(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		running, waiting := randomState(seed, 16, 4, 32)
		for _, p := range policy.Candidates {
			s := build(0, 16, running, waiting, p)
			if !s.scored {
				t.Fatal("builder output not marked scored")
			}
			walked := &Schedule{Now: s.Now, Capacity: s.Capacity, Policy: s.Policy, Entries: s.Entries}
			if s.PlannedSLDwA() != walked.PlannedSLDwA() ||
				s.PlannedART() != walked.PlannedART() ||
				s.PlannedARTwW() != walked.PlannedARTwW() ||
				s.PlannedAWT() != walked.PlannedAWT() ||
				s.PlannedMakespan() != walked.PlannedMakespan() ||
				s.MaxEstimatedEnd() != walked.MaxEstimatedEnd() {
				t.Fatalf("seed %d %v: fused scores differ from walked", seed, p)
			}
		}
	}
}

func TestUnscoredEmptyScheduleConventions(t *testing.T) {
	s := &Schedule{Now: 10, Capacity: 4}
	if s.PlannedSLDwA() != 0 || s.PlannedART() != 0 || s.PlannedMakespan() != 0 {
		t.Fatal("empty unscored schedule must score 0")
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
