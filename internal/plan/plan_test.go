package plan

import (
	"math"
	"testing"
	"testing/quick"

	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
)

func mkJob(id job.ID, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

// build is the one-shot build most tests here have as their subject: a
// fresh base and schedule per call and a full sort of the queue.
func build(now int64, capacity int, running []Running, waiting []*job.Job, p policy.Policy) *Schedule {
	var base Base
	base.Reset(now, capacity, running)
	s := new(Schedule)
	base.BuildInto([]*Schedule{s}, [][]*job.Job{policy.Order(p, waiting)}, []policy.Policy{p})
	return s
}

func startOf(s *Schedule, id job.ID) int64 {
	for _, e := range s.Entries {
		if e.Job.ID == id {
			return e.Start
		}
	}
	return -1
}

func TestBuildEmpty(t *testing.T) {
	s := build(100, 8, nil, nil, policy.FCFS)
	if len(s.Entries) != 0 {
		t.Fatal("empty build produced entries")
	}
	for _, v := range []float64{s.PlannedSLDwA(), s.PlannedART(), s.PlannedARTwW(),
		s.PlannedAWT(), s.PlannedMakespan()} {
		if v != 0 {
			t.Fatalf("empty schedule metric %v != 0", v)
		}
	}
}

func TestBuildIdleMachineStartsNow(t *testing.T) {
	j := mkJob(1, 0, 4, 100)
	s := build(50, 8, nil, []*job.Job{j}, policy.FCFS)
	if got := startOf(s, 1); got != 50 {
		t.Fatalf("start = %d, want 50 (now)", got)
	}
}

func TestBuildWaitsForRunning(t *testing.T) {
	running := []Running{{Job: mkJob(9, 0, 6, 100), Start: 0}}
	j := mkJob(1, 0, 4, 10)
	s := build(20, 8, running, []*job.Job{j}, policy.FCFS)
	// 2 processors free until 100; width 4 must wait for the running
	// job's estimated end.
	if got := startOf(s, 1); got != 100 {
		t.Fatalf("start = %d, want 100", got)
	}
}

func TestImplicitBackfilling(t *testing.T) {
	// FCFS order: wide job first (reserves after running job), short
	// narrow job second — it must backfill into the gap without delaying
	// the wide job's reservation.
	running := []Running{{Job: mkJob(9, 0, 6, 100), Start: 0}}
	wide := mkJob(1, 1, 8, 50)
	narrow := mkJob(2, 2, 2, 80)
	s := build(10, 8, running, []*job.Job{wide, narrow}, policy.FCFS)
	if got := startOf(s, 1); got != 100 {
		t.Fatalf("wide start = %d, want 100", got)
	}
	if got := startOf(s, 2); got != 10 {
		t.Fatalf("narrow should backfill at 10, got %d", got)
	}
	if err := s.Verify(running); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestBackfillNeverDelaysEarlierJob(t *testing.T) {
	// The narrow job is too long for the gap; it must not postpone the
	// wide job (placed first in FCFS order).
	running := []Running{{Job: mkJob(9, 0, 6, 100), Start: 0}}
	wide := mkJob(1, 1, 8, 50)
	long := mkJob(2, 2, 2, 200)
	s := build(10, 8, running, []*job.Job{wide, long}, policy.FCFS)
	if got := startOf(s, 1); got != 100 {
		t.Fatalf("wide start = %d, want 100", got)
	}
	if got := startOf(s, 2); got != 150 {
		t.Fatalf("long narrow start = %d, want 150", got)
	}
}

func TestPolicyOrderMatters(t *testing.T) {
	// One processor machine: execution is strictly sequential in policy
	// order.
	short := mkJob(1, 0, 1, 10)
	long := mkJob(2, 0, 1, 100)
	waiting := []*job.Job{long, short}

	sjf := build(0, 1, nil, waiting, policy.SJF)
	if startOf(sjf, 1) != 0 || startOf(sjf, 2) != 10 {
		t.Fatalf("SJF plan wrong: short at %d, long at %d", startOf(sjf, 1), startOf(sjf, 2))
	}
	ljf := build(0, 1, nil, waiting, policy.LJF)
	if startOf(ljf, 2) != 0 || startOf(ljf, 1) != 100 {
		t.Fatalf("LJF plan wrong: long at %d, short at %d", startOf(ljf, 2), startOf(ljf, 1))
	}
}

func TestPlannedMetrics(t *testing.T) {
	// Single processor, two jobs submitted at 0: a (est 10, width 1)
	// then b (est 40, width 1), FCFS order, now = 0.
	a := mkJob(1, 0, 1, 10)
	b := mkJob(2, 0, 1, 40)
	s := build(0, 1, nil, []*job.Job{a, b}, policy.FCFS)
	// a: start 0, response 10, slowdown 1, area 10.
	// b: start 10, response 50, slowdown 50/40 = 1.25, area 40.
	wantSLDwA := (10.0*1 + 40*1.25) / 50
	if got := s.PlannedSLDwA(); math.Abs(got-wantSLDwA) > 1e-12 {
		t.Errorf("PlannedSLDwA = %v, want %v", got, wantSLDwA)
	}
	if got := s.PlannedART(); math.Abs(got-30) > 1e-12 {
		t.Errorf("PlannedART = %v, want 30", got)
	}
	if got := s.PlannedAWT(); math.Abs(got-5) > 1e-12 {
		t.Errorf("PlannedAWT = %v, want 5", got)
	}
	if got := s.PlannedARTwW(); math.Abs(got-30) > 1e-12 {
		t.Errorf("PlannedARTwW = %v, want 30 (unit widths)", got)
	}
	if got := s.PlannedMakespan(); math.Abs(got-50) > 1e-12 {
		t.Errorf("PlannedMakespan = %v, want 50", got)
	}
}

func TestVerifyCatchesBadSchedule(t *testing.T) {
	a := mkJob(1, 5, 4, 10)
	s := build(10, 8, nil, []*job.Job{a}, policy.FCFS)
	s.Entries[0].Start = 3 // before now and before submit
	if err := s.Verify(nil); err == nil {
		t.Fatal("Verify accepted a start before now")
	}
	s = build(10, 8, nil, []*job.Job{a}, policy.FCFS)
	s.Entries[0].Job = mkJob(2, 20, 4, 10) // submitted after now
	s.Entries[0].Start = 10
	if err := s.Verify(nil); err == nil {
		t.Fatal("Verify accepted a start before submission")
	}
}

func TestVerifyCatchesOverlap(t *testing.T) {
	a := mkJob(1, 0, 6, 10)
	b := mkJob(2, 0, 6, 10)
	s := build(0, 8, nil, []*job.Job{a, b}, policy.FCFS)
	s.Entries[1].Start = 0 // force overlap: 12 > 8 processors
	if err := s.Verify(nil); err == nil {
		t.Fatal("Verify accepted over-subscription")
	}
}

func TestVerifyCatchesLateStart(t *testing.T) {
	// Two jobs that fit side by side on an idle machine. Moving the second
	// to a later instant keeps the schedule feasible — all eight
	// processors are free there — but it is no longer the earliest hole,
	// which is what a planner-built schedule promises and what an unsound
	// search bound would break.
	a := mkJob(1, 0, 4, 10)
	b := mkJob(2, 0, 4, 10)
	s := build(10, 8, nil, []*job.Job{a, b}, policy.FCFS)
	if err := s.Verify(nil); err != nil {
		t.Fatalf("Verify rejected the built schedule: %v", err)
	}
	s.Entries[1].Start = 60
	if err := s.Verify(nil); err == nil {
		t.Fatal("Verify accepted a feasible but late start")
	}
}

func TestPropertySchedulesAlwaysFeasible(t *testing.T) {
	// Random machine states and queues: every policy must produce a
	// feasible plan and never start a job before now.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		capacity := 1 + r.Intn(32)
		now := int64(r.Intn(1000))
		var running []Running
		usedNow := 0
		for i := 0; i < r.Intn(5); i++ {
			w := 1 + r.Intn(capacity)
			if usedNow+w > capacity {
				break
			}
			usedNow += w
			start := now - int64(r.Intn(50))
			est := now - start + int64(1+r.Intn(100)) // still running
			running = append(running, Running{
				Job:   &job.Job{ID: job.ID(1000 + i), Submit: start, Width: w, Estimate: est, Runtime: est},
				Start: start,
			})
		}
		var waiting []*job.Job
		for i := 0; i < 1+r.Intn(12); i++ {
			waiting = append(waiting, &job.Job{
				ID: job.ID(i + 1), Submit: now - int64(r.Intn(100)),
				Width: 1 + r.Intn(capacity), Estimate: int64(1 + r.Intn(200)), Runtime: 1,
			})
			if waiting[i].Submit < 0 {
				waiting[i].Submit = 0
			}
		}
		for _, p := range policy.Candidates {
			s := build(now, capacity, running, waiting, p)
			if len(s.Entries) != len(waiting) {
				return false
			}
			if err := s.Verify(running); err != nil {
				t.Logf("seed %d policy %v: %v", seed, p, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySJFMinimisesPlannedSLDwAOnUnitMachine(t *testing.T) {
	// On a one-processor machine with equal submits and unit widths,
	// SJF is optimal for average (and area-weighted) slowdown among the
	// three candidate orders.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		var waiting []*job.Job
		for i := 0; i < 2+r.Intn(8); i++ {
			waiting = append(waiting, &job.Job{
				ID: job.ID(i + 1), Submit: 0, Width: 1,
				Estimate: int64(1 + r.Intn(500)), Runtime: 1,
			})
		}
		sjf := build(0, 1, nil, waiting, policy.SJF).PlannedSLDwA()
		for _, p := range []policy.Policy{policy.FCFS, policy.LJF} {
			if build(0, 1, nil, waiting, p).PlannedSLDwA() < sjf-1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomState builds a deterministic mix of running and waiting jobs for
// the shared-base tests.
func randomState(seed uint64, capacity, nRunning, queued int) ([]Running, []*job.Job) {
	r := rng.New(seed)
	running := make([]Running, nRunning)
	for i := range running {
		running[i] = Running{
			Job: &job.Job{
				ID: job.ID(i + 1), Submit: 0,
				Width: 1 + r.Intn(capacity/nRunning), Estimate: int64(100 + r.Intn(5000)),
			},
			Start: 0,
		}
	}
	waiting := make([]*job.Job, queued)
	for i := range waiting {
		est := int64(1 + r.Intn(20000))
		waiting[i] = &job.Job{
			ID: job.ID(nRunning + i + 1), Submit: int64(r.Intn(1000)),
			Width: 1 + r.Intn(capacity), Estimate: est, Runtime: est,
		}
	}
	return running, waiting
}
