package engine_test

import (
	"strings"
	"testing"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
)

func mkJob(id job.ID, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

func fcfs() engine.Driver { return &sim.Static{Policy: policy.FCFS} }

func TestSubmitReplanLaunchFinish(t *testing.T) {
	var started, finishedJobs []job.ID
	var finStates []engine.FinishState
	eng := engine.New(4, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Started: func(j *job.Job, now int64) { started = append(started, j.ID) },
		Finished: func(j *job.Job, st engine.FinishState, now int64) {
			finishedJobs = append(finishedJobs, j.ID)
			finStates = append(finStates, st)
		},
	}))

	a, b := mkJob(1, 0, 2, 10), mkJob(2, 0, 2, 10)
	eng.Submit(a)
	eng.Submit(b)
	if !eng.IsWaiting(1) || !eng.IsWaiting(2) {
		t.Fatal("submitted jobs not waiting")
	}
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if len(started) != 2 || eng.Used() != 4 {
		t.Fatalf("started %v, used %d", started, eng.Used())
	}
	if !eng.IsRunning(1) || eng.IsWaiting(1) {
		t.Fatal("job 1 not moved to running")
	}

	if !eng.Finish(1, engine.FinishCompleted) {
		t.Fatal("finish reported not running")
	}
	if eng.Finish(1, engine.FinishCompleted) {
		t.Fatal("double finish accepted")
	}
	if eng.Used() != 2 || len(finishedJobs) != 1 || finStates[0] != engine.FinishCompleted {
		t.Fatalf("after finish: used %d, finished %v %v", eng.Used(), finishedJobs, finStates)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelWaiting(t *testing.T) {
	eng := engine.New(1, fcfs(), 0)
	eng.Submit(mkJob(1, 0, 1, 10))
	eng.Submit(mkJob(2, 0, 1, 10))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	// Job 1 runs; job 2 waits behind it.
	if !eng.CancelWaiting(2) {
		t.Fatal("waiting job not cancelled")
	}
	if eng.CancelWaiting(2) {
		t.Fatal("cancelled job cancelled twice")
	}
	if eng.CancelWaiting(1) {
		t.Fatal("running job cancelled as waiting")
	}
	if len(eng.Waiting()) != 0 {
		t.Fatalf("queue = %v", eng.Waiting())
	}
}

func TestKillExpired(t *testing.T) {
	var st []engine.FinishState
	eng := engine.New(2, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Finished: func(j *job.Job, s engine.FinishState, now int64) { st = append(st, s) },
	}))
	eng.Submit(mkJob(1, 0, 2, 10))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	eng.JumpTo(9)
	if eng.KillExpired() {
		t.Fatal("killed before the estimate expired")
	}
	eng.JumpTo(10)
	if !eng.KillExpired() {
		t.Fatal("expired job not killed")
	}
	if len(st) != 1 || st[0] != engine.FinishKilled {
		t.Fatalf("finish states = %v", st)
	}
}

func TestJumpToBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards jump did not panic")
		}
	}()
	eng := engine.New(1, fcfs(), 100)
	eng.JumpTo(99)
}

func TestFailProcsKillsVictimsInOrder(t *testing.T) {
	var killed []job.ID
	eng := engine.New(4, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Finished: func(j *job.Job, st engine.FinishState, now int64) {
			if st == engine.FinishFailed {
				killed = append(killed, j.ID)
			}
		},
	}))
	eng.Submit(mkJob(1, 0, 2, 100))
	eng.Submit(mkJob(2, 0, 2, 100))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	// Both started at t=0; VictimLastStarted breaks the tie by higher ID.
	eng.FailProcs(2)
	if len(killed) != 1 || killed[0] != 2 {
		t.Fatalf("victims = %v, want [2]", killed)
	}
	if eng.Used() != 2 || eng.Effective() != 2 {
		t.Fatalf("used %d of effective %d", eng.Used(), eng.Effective())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnplaceableJobsWithheldUntilRestore(t *testing.T) {
	var lastUnplaceable []*job.Job
	eng := engine.New(4, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Planned: func(sched *plan.Schedule, unplaceable []*job.Job) { lastUnplaceable = unplaceable },
	}))
	eng.FailProcs(2) // effective capacity 2
	wide, narrow := mkJob(1, 0, 3, 10), mkJob(2, 0, 2, 10)
	eng.Submit(wide)
	eng.Submit(narrow)
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if len(lastUnplaceable) != 1 || lastUnplaceable[0].ID != 1 {
		t.Fatalf("unplaceable = %v, want the width-3 job", lastUnplaceable)
	}
	if !eng.IsRunning(2) || !eng.IsWaiting(1) {
		t.Fatal("narrow job must run while the wide one is withheld")
	}
	// With the processors back, the wide job becomes plannable again.
	eng.Finish(2, engine.FinishCompleted)
	eng.RestoreProcs(2)
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if len(lastUnplaceable) != 0 || !eng.IsRunning(1) {
		t.Fatalf("wide job not launched after restore (unplaceable %v)", lastUnplaceable)
	}
}

func TestReplanOnFullyDrainedMachine(t *testing.T) {
	var planNil, sawQueue bool
	eng := engine.New(2, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Planned: func(sched *plan.Schedule, unplaceable []*job.Job) {
			planNil = sched == nil
			sawQueue = len(unplaceable) == 1
		},
	}))
	eng.FailProcs(2)
	eng.Submit(mkJob(1, 0, 1, 10))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if !planNil || !sawQueue {
		t.Fatalf("drained replan: nil plan %v, queue reported %v", planNil, sawQueue)
	}
	if eng.Schedule() != nil {
		t.Fatal("drained machine retains a schedule")
	}
}

func TestAdvanceToFiresKillsAndStarts(t *testing.T) {
	var order []string
	eng := engine.New(2, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Started: func(j *job.Job, now int64) {
			order = append(order, strings.Join([]string{"start", j.String()}, " "))
		},
	}))
	a, b := mkJob(1, 0, 2, 10), mkJob(2, 0, 2, 5)
	eng.Submit(a)
	eng.Submit(b)
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	// a runs [0,10); b is planned at 10.
	if err := eng.AdvanceTo(100, false); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 15 {
		t.Fatalf("clock at %d after drain, want 15", eng.Now())
	}
	if eng.Used() != 0 || len(eng.Waiting()) != 0 {
		t.Fatalf("machine not drained: used %d, waiting %d", eng.Used(), len(eng.Waiting()))
	}
	if len(order) != 2 {
		t.Fatalf("starts = %v", order)
	}
	if _, ok := eng.NextActionTime(false); ok {
		t.Fatal("drained machine still has pending actions")
	}
}

func TestAdvanceToExclusiveStopsBeforeBoundary(t *testing.T) {
	eng := engine.New(2, fcfs(), 0)
	eng.Submit(mkJob(1, 0, 2, 10))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	// The kill at t=10 must not fire when advancing exclusively to 10.
	if err := eng.AdvanceTo(10, true); err != nil {
		t.Fatal(err)
	}
	if !eng.IsRunning(1) {
		t.Fatal("exclusive advance fired the boundary action")
	}
	if err := eng.AdvanceTo(10, false); err != nil {
		t.Fatal(err)
	}
	if eng.IsRunning(1) {
		t.Fatal("inclusive advance left the expired job running")
	}
}

func TestObserverStream(t *testing.T) {
	var kinds []engine.EventKind
	var planQueued []int
	var eng *engine.Engine
	eng = engine.New(2, fcfs(), 0, engine.WithObserver(engine.ObserverFunc(func(ev engine.Event) {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == engine.EventPlan {
			planQueued = append(planQueued, ev.Queued)
		}
		if ev.Time != eng.Now() {
			t.Errorf("event %s stamped t=%d, engine at %d", ev.Kind, ev.Time, eng.Now())
		}
	})))
	eng.Submit(mkJob(1, 0, 1, 10))
	eng.Submit(mkJob(2, 0, 2, 10))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	eng.Finish(1, engine.FinishCompleted)

	want := []engine.EventKind{
		engine.EventSubmit, engine.EventSubmit,
		engine.EventStart, engine.EventPlan,
		engine.EventFinish,
	}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// The plan event sees the post-launch queue: job 2 still waiting.
	if len(planQueued) != 1 || planQueued[0] != 1 {
		t.Fatalf("plan queue depths = %v, want [1]", planQueued)
	}
}

// caseCounter is a DecisionCaser stub that counts how often the engine
// asks for the decision case.
type caseCounter struct {
	sim.Static
	calls int
}

func (c *caseCounter) LastDecisionCase() string { c.calls++; return "stub" }

// TestReplanAsksCaseOnlyWhenObserved: the plan event's decision case is
// built for observers only — an unobserved engine never asks the driver,
// an observed one asks once per Replan and stamps the answer.
func TestReplanAsksCaseOnlyWhenObserved(t *testing.T) {
	drive := func(eng *engine.Engine) {
		t.Helper()
		eng.Submit(mkJob(1, 0, 1, 10))
		eng.Submit(mkJob(2, 0, 2, 10))
		for i := 0; i < 3; i++ {
			if err := eng.Replan(); err != nil {
				t.Fatal(err)
			}
		}
	}
	bare := &caseCounter{Static: sim.Static{Policy: policy.FCFS}}
	drive(engine.New(2, bare, 0))
	if bare.calls != 0 {
		t.Fatalf("unobserved engine asked for the decision case %d times", bare.calls)
	}
	watched := &caseCounter{Static: sim.Static{Policy: policy.FCFS}}
	var cases []string
	drive(engine.New(2, watched, 0, engine.WithObserver(engine.ObserverFunc(func(ev engine.Event) {
		if ev.Kind == engine.EventPlan {
			cases = append(cases, ev.Case)
		}
	}))))
	if watched.calls != 3 || len(cases) != 3 || cases[0] != "stub" {
		t.Fatalf("observed engine: %d case calls, plan cases %q; want 3 and 3 stamped", watched.calls, cases)
	}
}

func TestEventKindNames(t *testing.T) {
	names := map[engine.EventKind]string{
		engine.EventSubmit:       "submit",
		engine.EventStart:        "start",
		engine.EventFinish:       "finish",
		engine.EventKill:         "kill",
		engine.EventJobFail:      "job-fail",
		engine.EventCancel:       "cancel",
		engine.EventProcsFail:    "procs-fail",
		engine.EventProcsRestore: "procs-restore",
		engine.EventPlan:         "plan",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// BenchmarkEngineEventLoop drives the full submit→replan→launch→expire
// cycle through the engine for a 10k-job workload, the scale of the
// paper's full traces, measuring the shared event-loop bookkeeping with
// the real availability-profile planner.
func BenchmarkEngineEventLoop(b *testing.B) {
	const n, capacity = 10000, 128
	r := rng.New(1)
	jobs := make([]*job.Job, n)
	var clock int64
	for i := range jobs {
		clock += int64(r.Intn(10))
		est := int64(1 + r.Intn(100))
		jobs[i] = &job.Job{
			ID: job.ID(i + 1), Submit: clock,
			Width: 1 + r.Intn(16), Estimate: est, Runtime: est,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		finished := 0
		eng := engine.New(capacity, fcfs(), 0, engine.WithHooks(engine.Hooks{
			Finished: func(*job.Job, engine.FinishState, int64) { finished++ },
		}))
		for i := 0; i < len(jobs); {
			now := jobs[i].Submit
			if err := eng.AdvanceTo(now, true); err != nil {
				b.Fatal(err)
			}
			eng.JumpTo(now)
			eng.KillExpired()
			for ; i < len(jobs) && jobs[i].Submit == now; i++ {
				eng.Submit(jobs[i])
			}
			if err := eng.Replan(); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.AdvanceTo(int64(1)<<60, false); err != nil {
			b.Fatal(err)
		}
		if finished != n {
			b.Fatalf("%d of %d jobs finished", finished, n)
		}
	}
}

// recyclingDriver breaks the Driver.Plan lifetime rule: it hands out a
// schedule it has already marked superseded.
type recyclingDriver struct{ engine.Driver }

func (d recyclingDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	s := d.Driver.Plan(now, capacity, running, waiting)
	s.Release()
	return s
}

// TestVerifyRejectsRecycledPlan: a plan its driver superseded while the
// engine holds it is an error on the verify path, not a quietly wrong
// launch decision.
func TestVerifyRejectsRecycledPlan(t *testing.T) {
	eng := engine.New(2, recyclingDriver{&sim.EASY{Base: policy.FCFS}}, 0, engine.WithVerify())
	eng.Submit(mkJob(1, 0, 1, 10))
	err := eng.Replan()
	if err == nil || !strings.Contains(err.Error(), "superseded") {
		t.Fatalf("Replan with a recycled plan: %v, want a superseded-plan error", err)
	}
	if err := eng.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "superseded") {
		t.Fatalf("CheckInvariants with a recycled plan in force: %v", err)
	}
}
