package engine_test

import (
	"fmt"
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
		Finished: func(r plan.Running, st engine.FinishState, now int64) {
			if r.Start != 0 {
				t.Errorf("job %d finished with start %d, launched at 0", r.Job.ID, r.Start)
			}
			finishedJobs = append(finishedJobs, r.Job.ID)
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

// TestFinishEnded: a job ends when its run time runs out, not its
// estimate, and leaves as the state FinishEnded is given.
func TestFinishEnded(t *testing.T) {
	var st []engine.FinishState
	eng := engine.New(2, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Finished: func(_ plan.Running, s engine.FinishState, now int64) { st = append(st, s) },
	}))
	eng.Submit(&job.Job{ID: 1, Width: 1, Estimate: 10, Runtime: 6})
	eng.Submit(mkJob(2, 0, 1, 10))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if next, ok := eng.NextEnd(); !ok || next != 6 {
		t.Fatalf("next end %d, %v; want 6", next, ok)
	}
	eng.JumpTo(5)
	if eng.FinishEnded(engine.FinishCompleted); len(st) != 0 {
		t.Fatal("finished before the run time ran out")
	}
	eng.JumpTo(6)
	if eng.FinishEnded(engine.FinishCompleted); eng.IsRunning(1) || !eng.IsRunning(2) {
		t.Fatal("job 1 not finished at its run time, or job 2 before its own")
	}
	eng.JumpTo(10)
	eng.FinishEnded(engine.FinishKilled)
	if fmt.Sprint(st) != fmt.Sprint([]engine.FinishState{engine.FinishCompleted, engine.FinishKilled}) {
		t.Fatalf("finish states = %v", st)
	}
}

// TestFinishEndedInStartOrder: FinishEnded walks the running set in
// place, so neighbours that end together must each be finished, in
// start order, and the survivors keep theirs.
func TestFinishEndedInStartOrder(t *testing.T) {
	var killed []job.ID
	eng := engine.New(8, fcfs(), 0, engine.WithHooks(engine.Hooks{
		Finished: func(r plan.Running, _ engine.FinishState, _ int64) { killed = append(killed, r.Job.ID) },
	}))
	for i, est := range []int64{10, 10, 30, 10, 20, 10} {
		eng.Submit(mkJob(job.ID(i+1), 0, 1, est))
	}
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	eng.JumpTo(10)
	eng.FinishEnded(engine.FinishKilled)
	if fmt.Sprint(killed) != "[1 2 4 6]" {
		t.Fatalf("killed %v, want [1 2 4 6]", killed)
	}
	var left []job.ID
	for _, r := range eng.Running() {
		left = append(left, r.Job.ID)
	}
	if fmt.Sprint(left) != "[3 5]" || eng.Used() != 2 {
		t.Fatalf("running %v on %d processors, want [3 5] on 2", left, eng.Used())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEventLoopAllocs is the engine's allocation gate: once its queues
// have grown, a cycle of submissions, a replan that leaves one job
// waiting, a completion, a cancellation and the ends of the rest
// allocates nothing. The queues are the only record of where a job is,
// and FinishEnded walks the running set in place.
func TestEventLoopAllocs(t *testing.T) {
	eng := engine.New(8, fcfs(), 0)
	eng.Submit(mkJob(1, 0, 2, 1<<40)) // runs throughout
	batch := []*job.Job{mkJob(2, 0, 2, 10), mkJob(3, 0, 2, 10), mkJob(4, 0, 2, 10), mkJob(5, 0, 2, 10), mkJob(6, 0, 8, 10)}
	cycle := func() {
		now := eng.Now()
		for _, j := range batch {
			eng.Submit(j)
		}
		if err := eng.Replan(); err != nil { // 2, 3, 4 start; 5 and 6 wait
			t.Fatal(err)
		}
		eng.CancelWaiting(6)
		eng.JumpTo(now + 5)
		eng.Finish(3, engine.FinishCompleted)
		if err := eng.Replan(); err != nil { // 5 starts
			t.Fatal(err)
		}
		if err := eng.AdvanceTo(now+15, false); err != nil { // 2 and 4 end, then 5
			t.Fatal(err)
		}
		eng.JumpTo(now + 15)
		if len(eng.Running()) != 1 || len(eng.Waiting()) != 0 {
			t.Fatalf("at t=%d: %d running, %d waiting, want 1 and 0", eng.Now(), len(eng.Running()), len(eng.Waiting()))
		}
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Errorf("an event-loop cycle allocates %.2f objects, want 0", avg)
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

// TestAdvanceToFiresKillsAndStarts holds AdvanceTo to what only the
// engine's API shows: after it fires job 1's kill and job 2's start at 10
// and job 2's kill at 15, the clock stays at that last action, and a
// drained machine has no action left. The order of those transitions is
// the daemon's tie rule 3 (rms.TestTieRules).
func TestAdvanceToFiresKillsAndStarts(t *testing.T) {
	eng := engine.New(2, fcfs(), 0)
	eng.Submit(mkJob(1, 0, 2, 10))
	eng.Submit(mkJob(2, 0, 2, 5))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(100, false); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 15 {
		t.Fatalf("clock at %d after drain, want 15", eng.Now())
	}
	if eng.Used() != 0 || len(eng.Waiting()) != 0 {
		t.Fatalf("machine not drained: used %d, waiting %d", eng.Used(), len(eng.Waiting()))
	}
	if _, ok := eng.NextEnd(); ok {
		t.Fatal("drained machine still has pending actions")
	}
}

// lateDriver plans job 1 now and every other waiting job at at, or now
// once at has passed: a rogue start at an instant where no estimate runs
// out.
type lateDriver struct{ at int64 }

func (lateDriver) Name() string                { return "late" }
func (lateDriver) ActivePolicy() policy.Policy { return policy.FCFS }
func (d lateDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	s := &plan.Schedule{Now: now, Capacity: capacity, Policy: policy.FCFS}
	for _, j := range waiting {
		start := now
		if j.ID != 1 && now < d.at {
			start = d.at
		}
		s.Entries = append(s.Entries, plan.Entry{Job: j, Start: start})
	}
	return s
}

// nowDriver plans every waiting job now, whether it fits or not.
type nowDriver struct{}

func (nowDriver) Name() string                { return "now" }
func (nowDriver) ActivePolicy() policy.Policy { return policy.FCFS }
func (nowDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	s := &plan.Schedule{Now: now, Capacity: capacity, Policy: policy.FCFS}
	for _, j := range waiting {
		s.Entries = append(s.Entries, plan.Entry{Job: j, Start: now})
	}
	return s
}

// advanceLog submits job 1 (3 processors, estimate 10) and job 2
// (width2 processors, estimate 5) to 4 processors planned by d, replans
// at 0, advances to 100 and returns every transition the engine emitted.
func advanceLog(t *testing.T, d engine.Driver, width2 int) string {
	t.Helper()
	var log []string
	eng := engine.New(4, d, 0, engine.WithObserver(engine.ObserverFunc(func(ev engine.Event) {
		if ev.Job != nil {
			log = append(log, fmt.Sprintf("%s %d@%d", ev.Kind, ev.Job.ID, ev.Time))
		} else {
			log = append(log, fmt.Sprintf("%s@%d", ev.Kind, ev.Time))
		}
	})))
	eng.Submit(mkJob(1, 0, 3, 10))
	eng.Submit(mkJob(2, 0, width2, 5))
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(100, false); err != nil {
		t.Fatal(err)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(log, ", ")
}

// TestAdvanceToIgnoresPlannedStartsBetweenExpiries: a run time running
// out is the machine's only automatic action. Job 2 is planned at 3,
// where no run time runs out, so it starts at job 1's kill at 10, the
// next scheduling event, and not at 3.
func TestAdvanceToIgnoresPlannedStartsBetweenExpiries(t *testing.T) {
	got := advanceLog(t, lateDriver{at: 3}, 1)
	want := "submit 1@0, submit 2@0, start 1@0, plan@0, " +
		"kill 1@10, start 2@10, plan@10, kill 2@15, plan@15"
	if got != want {
		t.Fatalf("transitions\n got %s\nwant %s", got, want)
	}
}

// TestAdvanceToPassesAnEntryThatDoesNotFit: a due-now entry that does not
// fit is skipped, and AdvanceTo neither replans nor starts anything until
// the next end, where the job starts.
func TestAdvanceToPassesAnEntryThatDoesNotFit(t *testing.T) {
	got := advanceLog(t, nowDriver{}, 3)
	want := "submit 1@0, submit 2@0, start 1@0, plan@0, " +
		"kill 1@10, start 2@10, plan@10, kill 2@15, plan@15"
	if got != want {
		t.Fatalf("transitions\n got %s\nwant %s", got, want)
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

// TestCountsWithoutObservers: the engine counts every transition by kind,
// plan events included, observed or not; an observer sees each event
// numbered by the count of transitions so far; a restored engine takes
// the counts of the state it restores; and an engine that took a
// submission is not virgin, even with its queues empty again.
func TestCountsWithoutObservers(t *testing.T) {
	drive := func(eng *engine.Engine) {
		t.Helper()
		eng.Submit(mkJob(1, 0, 2, 10))
		eng.Submit(mkJob(2, 0, 2, 5))
		eng.Submit(mkJob(3, 0, 4, 10))
		eng.Submit(mkJob(4, 0, 4, 10))
		steps := []func() error{
			eng.Replan, // 1 and 2 start
			func() error { eng.CancelWaiting(4); eng.Finish(2, engine.FinishCompleted); return eng.Replan() },
			func() error { return eng.AdvanceTo(10, false) },       // 1 is killed, 3 starts
			func() error { eng.FailProcs(1); return eng.Replan() }, // 3 fails
			func() error { eng.FailProcs(3); return eng.Replan() }, // drained
			func() error { eng.RestoreProcs(4); return eng.Replan() },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	bare := engine.New(4, fcfs(), 0)
	drive(bare)
	var want engine.Counts
	var seqs []int64
	drive(engine.New(4, fcfs(), 0, engine.WithObserver(engine.ObserverFunc(func(ev engine.Event) {
		want[ev.Kind]++
		seqs = append(seqs, ev.Seq)
	}))))
	if got := bare.Counts(); got != want {
		t.Fatalf("unobserved engine counted %v, an observer saw %v", got, want)
	}
	for i, seq := range seqs {
		if seq != int64(i+1) {
			t.Fatalf("event %d numbered %d", i, seq)
		}
	}
	for _, k := range []engine.EventKind{engine.EventSubmit, engine.EventStart, engine.EventFinish,
		engine.EventKill, engine.EventJobFail, engine.EventCancel, engine.EventProcsFail,
		engine.EventProcsRestore, engine.EventPlan} {
		if want[k] == 0 {
			t.Errorf("the drive makes no %v transition", k)
		}
	}
	restored := engine.New(4, fcfs(), 0)
	if err := restored.RestoreState(engine.State{Now: bare.Now(), Counts: bare.Counts()}); err != nil {
		t.Fatal(err)
	}
	if restored.Counts() != want {
		t.Fatalf("restored counts %v, want %v", restored.Counts(), want)
	}
	if len(bare.Waiting()) != 0 || len(bare.Running()) != 0 {
		t.Fatal("the drive leaves jobs on the machine")
	}
	if err := bare.RestoreState(engine.State{Now: bare.Now()}); err == nil {
		t.Fatal("RestoreState accepted an engine that took submissions")
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

// BenchmarkEngineEventLoop drives the full submit→replan→launch→end
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
			Finished: func(plan.Running, engine.FinishState, int64) { finished++ },
		}))
		for i := 0; i < len(jobs); {
			now := jobs[i].Submit
			if err := eng.AdvanceTo(now, true); err != nil {
				b.Fatal(err)
			}
			eng.JumpTo(now)
			eng.FinishEnded(engine.FinishKilled)
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
