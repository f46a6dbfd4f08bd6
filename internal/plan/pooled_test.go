package plan

import (
	"testing"

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

func TestScheduleDoubleReleasePanics(t *testing.T) {
	base := BuildBasePooled(0, 8, nil)
	s := BuildFromOrdered(base, nil, policy.FCFS)
	s.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Schedule.Release did not panic")
			}
		}()
		s.Release()
	}()
	base.Release()
}

func TestBaseDoubleReleasePanics(t *testing.T) {
	base := BuildBasePooled(0, 8, nil)
	base.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Base.Release did not panic")
		}
	}()
	base.Release()
}

// TestPooledScheduleReuseDoesNotAliasEscaped reproduces the ownership
// discipline: an escaped (never released) schedule must keep its entries
// intact while the pools hand storage to later builds.
func TestPooledScheduleReuseDoesNotAliasEscaped(t *testing.T) {
	running, waiting := randomState(7, 16, 3, 16)
	base := BuildBasePooled(0, 16, running)
	kept := BuildFromOrdered(base, policy.Order(policy.SJF, waiting), policy.SJF)
	snapshot := append([]Entry(nil), kept.Entries...)
	for i := 0; i < 50; i++ {
		p := policy.Candidates[i%len(policy.Candidates)]
		loser := BuildFromOrdered(base, policy.Order(p, waiting), p)
		loser.Release()
	}
	base.Release()
	for i, e := range kept.Entries {
		if e != snapshot[i] {
			t.Fatalf("escaped schedule entry %d mutated by pool reuse: %+v vs %+v", i, e, snapshot[i])
		}
	}
}
