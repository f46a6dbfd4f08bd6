package sim

import (
	"testing"
	"testing/quick"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
)

func mkSet(machine int, jobs ...*job.Job) *job.Set {
	return &job.Set{Name: "test", Machine: machine, Jobs: jobs}
}

func j(id job.ID, submit int64, width int, est, run int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: run}
}

func recordOf(res *Result, id job.ID) Record {
	for _, r := range res.Records {
		if r.Job.ID == id {
			return r
		}
	}
	return Record{}
}

func TestSingleJob(t *testing.T) {
	set := mkSet(4, j(1, 10, 2, 100, 60))
	res, err := Run(set, &Static{Policy: policy.FCFS}, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	r := recordOf(res, 1)
	if r.Start != 10 || r.Finish != 70 {
		t.Fatalf("record = %+v", r)
	}
	if res.Makespan != 70 || res.First != 10 {
		t.Fatalf("makespan/first = %d/%d", res.Makespan, res.First)
	}
}

func TestRejectsInvalidSet(t *testing.T) {
	set := mkSet(4, j(1, 0, 8, 10, 10)) // wider than the machine
	if _, err := Run(set, &Static{Policy: policy.FCFS}); err == nil {
		t.Fatal("invalid set accepted")
	}
}

func TestSequentialOnFullMachine(t *testing.T) {
	set := mkSet(2,
		j(1, 0, 2, 50, 50),
		j(2, 0, 2, 50, 50),
	)
	res, err := Run(set, &Static{Policy: policy.FCFS}, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if r := recordOf(res, 2); r.Start != 50 {
		t.Fatalf("second job started at %d, want 50", r.Start)
	}
}

func TestEarlyCompletionPullsStartForward(t *testing.T) {
	// Job 1 estimates 100 but runs 30; job 2 (same width) must start at
	// 30, not at the estimated end.
	set := mkSet(2,
		j(1, 0, 2, 100, 30),
		j(2, 0, 2, 100, 100),
	)
	res, err := Run(set, &Static{Policy: policy.FCFS}, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if r := recordOf(res, 2); r.Start != 30 {
		t.Fatalf("job 2 started at %d, want 30", r.Start)
	}
}

func TestBackfillingHappens(t *testing.T) {
	// Machine 4. Job 1 runs [0, 100) on 3 procs. Job 2 (width 4) must
	// wait until 100. Job 3 (width 1, est 50) backfills beside job 1.
	set := mkSet(4,
		j(1, 0, 3, 100, 100),
		j(2, 1, 4, 100, 100),
		j(3, 2, 1, 50, 50),
	)
	res, err := Run(set, &Static{Policy: policy.FCFS}, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if r := recordOf(res, 2); r.Start != 100 {
		t.Fatalf("wide job started at %d, want 100", r.Start)
	}
	if r := recordOf(res, 3); r.Start != 2 {
		t.Fatalf("backfill job started at %d, want 2", r.Start)
	}
}

func TestStaticPoliciesDiffer(t *testing.T) {
	// One processor, one running blocker, then a long and a short job:
	// SJF runs the short one first, LJF the long one first.
	mk := func() *job.Set {
		return mkSet(1,
			j(1, 0, 1, 10, 10),
			j(2, 1, 1, 100, 100),
			j(3, 2, 1, 20, 20),
		)
	}
	sjf, err := Run(mk(), &Static{Policy: policy.SJF}, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	ljf, err := Run(mk(), &Static{Policy: policy.LJF}, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if s3, s2 := recordOf(sjf, 3).Start, recordOf(sjf, 2).Start; !(s3 < s2) {
		t.Errorf("SJF: short job at %d not before long at %d", s3, s2)
	}
	if s2, s3 := recordOf(ljf, 2).Start, recordOf(ljf, 3).Start; !(s2 < s3) {
		t.Errorf("LJF: long job at %d not before short at %d", s2, s3)
	}
}

func TestPolicyTimeAccounting(t *testing.T) {
	set := mkSet(1, j(1, 0, 1, 10, 10), j(2, 5, 1, 10, 10))
	res, err := Run(set, &Static{Policy: policy.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, d := range res.PolicyTime {
		total += d
	}
	if total != res.Makespan-res.First {
		t.Fatalf("policy time %d != simulated span %d", total, res.Makespan-res.First)
	}
}

// TestPolicyTimeSpansTotal locks the final-span attribution: for every
// driver — including the self-tuning ones, whose active policy changes
// mid-run — the per-policy spans must sum exactly to Makespan - First.
//
// This is the regression gate for Run's tail guard: on every real
// workload the last event is a completion, Makespan only advances on
// completions, and the completing iteration's span attribution already
// reaches the makespan — so the guard itself is dead code and totality
// holds by construction. The test asserts the invariant the guard
// backstops, so a future loop restructure that CAN end before the
// makespan (making the guard live) is still covered.
func TestPolicyTimeSpansTotal(t *testing.T) {
	drivers := []func() Driver{
		func() Driver { return &Static{Policy: policy.FCFS} },
		func() Driver { return &Static{Policy: policy.SJF} },
		func() Driver { return NewDynP(core.Simple{}) },
		func() Driver { return NewDynP(core.Advanced{}) },
		func() Driver { return NewDynP(core.Preferred{Policy: policy.SJF}) },
		func() Driver { return &EASY{Base: policy.FCFS} },
	}
	for seed := uint64(0); seed < 5; seed++ {
		set := randomSet(seed, 120, 8)
		for _, mk := range drivers {
			d := mk()
			res, err := Run(set, d)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, d.Name(), err)
			}
			var total int64
			for _, span := range res.PolicyTime {
				total += span
			}
			if total != res.Makespan-res.First {
				t.Fatalf("seed %d, %s: policy spans sum to %d, simulated span is %d",
					seed, d.Name(), total, res.Makespan-res.First)
			}
			// The attribution must reach the makespan exactly — the
			// stronger form of "the tail span is empty today".
			if res.Makespan < res.First {
				t.Fatalf("seed %d, %s: makespan %d before first submission %d",
					seed, d.Name(), res.Makespan, res.First)
			}
		}
	}
}

func TestDynPDriverRuns(t *testing.T) {
	set := mkSet(2,
		j(1, 0, 2, 100, 100),
		j(2, 1, 1, 10, 10),
		j(3, 2, 1, 200, 200),
		j(4, 3, 2, 50, 50),
	)
	d := NewDynP(core.Advanced{})
	res, err := Run(set, d, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("completed %d jobs", len(res.Records))
	}
	st := d.Stats()
	if st.Steps != res.Events {
		t.Fatalf("tuner steps %d != scheduling events %d", st.Steps, res.Events)
	}
}

func TestQueueProbe(t *testing.T) {
	set := mkSet(1, j(1, 0, 1, 10, 10), j(2, 0, 1, 10, 10))
	var samples int
	_, err := Run(set, &Static{Policy: policy.FCFS},
		WithQueueProbe(func(now int64, queued int) { samples++ }))
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("probe never invoked")
	}
}

// randomSet builds a random but valid job set.
func randomSet(seed uint64, n, machine int) *job.Set {
	r := rng.New(seed)
	set := &job.Set{Name: "rand", Machine: machine}
	var clock int64
	for i := 0; i < n; i++ {
		clock += int64(r.Intn(30))
		est := int64(1 + r.Intn(200))
		run := 1 + r.Int63n(est)
		set.Jobs = append(set.Jobs, &job.Job{
			ID: job.ID(i + 1), Submit: clock,
			Width: 1 + r.Intn(machine), Estimate: est, Runtime: run,
		})
	}
	return set
}

// checkInvariants verifies the fundamental correctness properties of a
// completed simulation: every job ran exactly once, after submission, for
// exactly its actual run time, and the machine was never over-subscribed.
func checkInvariants(t *testing.T, res *Result) {
	t.Helper()
	seen := make(map[job.ID]bool)
	type delta struct {
		t int64
		d int
	}
	var deltas []delta
	for _, r := range res.Records {
		if seen[r.Job.ID] {
			t.Fatalf("%s completed twice", r.Job)
		}
		seen[r.Job.ID] = true
		if r.Start < r.Job.Submit {
			t.Fatalf("%s started before submission at %d", r.Job, r.Start)
		}
		if r.Finish-r.Start != r.Job.Runtime {
			t.Fatalf("%s ran %d, want %d", r.Job, r.Finish-r.Start, r.Job.Runtime)
		}
		deltas = append(deltas, delta{r.Start, r.Job.Width}, delta{r.Finish, -r.Job.Width})
	}
	if len(seen) != len(res.Set.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(seen), len(res.Set.Jobs))
	}
	// Sweep usage over time.
	for i := 1; i < len(deltas); i++ {
		for k := i; k > 0 && (deltas[k].t < deltas[k-1].t ||
			(deltas[k].t == deltas[k-1].t && deltas[k].d < deltas[k-1].d)); k-- {
			deltas[k], deltas[k-1] = deltas[k-1], deltas[k]
		}
	}
	used := 0
	for _, d := range deltas {
		used += d.d
		if used > res.Set.Machine {
			t.Fatalf("machine over-subscribed: %d > %d at t=%d", used, res.Set.Machine, d.t)
		}
	}
	if used != 0 {
		t.Fatalf("usage sweep did not return to zero: %d", used)
	}
}

func TestPropertyInvariantsAllSchedulers(t *testing.T) {
	drivers := func() []Driver {
		return []Driver{
			&Static{Policy: policy.FCFS},
			&Static{Policy: policy.SJF},
			&Static{Policy: policy.LJF},
			NewDynP(core.Simple{}),
			NewDynP(core.Advanced{}),
			NewDynP(core.Preferred{Policy: policy.SJF}),
		}
	}
	if err := quick.Check(func(seed uint64) bool {
		set := randomSet(seed, 60, 8)
		for _, d := range drivers() {
			res, err := Run(set, d, WithVerify())
			if err != nil {
				t.Logf("seed %d, %s: %v", seed, d.Name(), err)
				return false
			}
			checkInvariants(t, res)
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNoIdleWithWaitingWork(t *testing.T) {
	// Work conservation at scheduling instants: whenever a job waits,
	// the machine cannot fit it now (checked through WithVerify's plan
	// feasibility plus this coarse throughput check: total completion
	// equals the job count).
	for seed := uint64(0); seed < 10; seed++ {
		set := randomSet(seed, 80, 4)
		res, err := Run(set, &Static{Policy: policy.FCFS}, WithVerify())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != len(set.Jobs) {
			t.Fatal("lost jobs")
		}
	}
}

func TestDeterminism(t *testing.T) {
	set := randomSet(7, 100, 8)
	a, err := Run(set, NewDynP(core.Advanced{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(set, NewDynP(core.Advanced{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i].Job.ID != b.Records[i].Job.ID ||
			a.Records[i].Start != b.Records[i].Start {
			t.Fatalf("non-deterministic at record %d", i)
		}
	}
}

func TestDynPPreferredSpendsMoreTimeInSJF(t *testing.T) {
	// The SJF-preferred decider must spend at least as much active time
	// in SJF as the advanced decider on the same input.
	set := randomSet(42, 200, 8)
	adv := NewDynP(core.Advanced{})
	resAdv, err := Run(set, adv)
	if err != nil {
		t.Fatal(err)
	}
	pref := NewDynP(core.Preferred{Policy: policy.SJF})
	resPref, err := Run(set, pref)
	if err != nil {
		t.Fatal(err)
	}
	advSJF := resAdv.PolicyTime[policy.SJF]
	prefSJF := resPref.PolicyTime[policy.SJF]
	if prefSJF < advSJF {
		t.Fatalf("preferred decider spent %d in SJF, advanced %d", prefSJF, advSJF)
	}
}
