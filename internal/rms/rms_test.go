package rms

import (
	"slices"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
)

func newFCFS(t *testing.T, capacity int) *Scheduler {
	t.Helper()
	s, err := New(capacity, &sim.Static{Policy: policy.FCFS}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, &sim.Static{Policy: policy.FCFS}, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New(4, nil, 0); err == nil {
		t.Error("nil driver accepted")
	}
}

func TestCancel(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(4, 100)
	b, _ := s.Submit(2, 50)
	if err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Job(b.ID); err == nil {
		t.Error("cancelled job still known")
	}
	if err := s.Cancel(a.ID); err == nil {
		t.Error("cancelling a running job accepted")
	}
}

func TestStateString(t *testing.T) {
	if StateWaiting.String() != "waiting" || StateKilled.String() != "killed" {
		t.Fatal("state names wrong")
	}
	if JobState(99).String() == "" {
		t.Fatal("out of range state empty")
	}
}

// TestDifferentialSimVsRMS holds the online scheduler to the oracle on
// seeded sets, for static FCFS and the paper's three deciders. Each set
// runs once through the oracle's offline loop (plantest.Simulate); the
// online scheduler, fed one Deliver batch at each of that run's
// submission and completion instants, must take the transitions and
// finish the jobs of a naive daemon fed the same batches, and start and
// finish every job where the offline run does. Jobs that run out their
// estimate get no completion: Deliver's kill sweep ends them at the very
// same instant. The scheduler plans with a lockstep driver, so each of
// its plans and decisions is held to the naive planner or tuner too.
func TestDifferentialSimVsRMS(t *testing.T) {
	deciders := map[string]func() core.Decider{
		"FCFS":          nil,
		"simple":        func() core.Decider { return core.Simple{} },
		"advanced":      func() core.Decider { return core.Advanced{} },
		"preferred-sjf": func() core.Decider { return core.Preferred{Policy: policy.SJF} },
	}
	// Seeds 1 to 32, and one that once parted online from offline.
	seeds := []uint64{0xbf1935662dda1936}
	for seed := uint64(1); seed <= 32; seed++ {
		seeds = append(seeds, seed)
	}
	for name, newDecider := range deciders {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				runDifferential(t, differentialSet(seed), newDecider)
			}
		})
	}
}

// differentialSet draws a 40-job set on 8 processors. Run times are drawn
// up to the estimate, so some jobs exercise the client-completion path
// and some the RMS kill-at-estimate path.
func differentialSet(seed uint64) *job.Set {
	r := rng.New(seed)
	set := &job.Set{Name: "diff", Machine: 8}
	var clock int64
	for i := 0; i < 40; i++ {
		clock += int64(r.Intn(50))
		est := int64(1 + r.Intn(100))
		set.Jobs = append(set.Jobs, &job.Job{
			ID: job.ID(i + 1), Submit: clock,
			Width: 1 + r.Intn(set.Machine), Estimate: est, Runtime: 1 + r.Int63n(est),
		})
	}
	return set
}

// naiveStep is the oracle's step: static FCFS when newDecider is nil,
// else a naive tuner.
func naiveStep(newDecider func() core.Decider) plantest.Step {
	if newDecider == nil {
		return plantest.Fixed{Policy: policy.FCFS}
	}
	return plantest.NewTuner(newDecider(), core.MetricSLDwA)
}

// runDifferential runs one set through the oracle and, as a stream of one
// batch an instant, the stream interpreter. A daemon numbers jobs in
// arrival order, as the set does.
func runDifferential(t *testing.T, set *job.Set, newDecider func() core.Decider) {
	offline := plantest.Simulate(set, naiveStep(newDecider))
	var instants []int64
	finish := make(map[job.ID]plantest.Record, len(set.Jobs))
	for _, rec := range offline.Records {
		finish[rec.Job.ID] = rec
		instants = append(instants, rec.Job.Submit, rec.Finish)
	}
	slices.Sort(instants)
	var ops []streamOp
	next := 0
	for _, now := range slices.Compact(instants) {
		batch := Request{Op: "deliver", To: now}
		for _, j := range set.Jobs {
			if j.Runtime < j.Estimate && finish[j.ID].Finish == now {
				batch.Completions = append(batch.Completions, int64(j.ID))
			}
		}
		for ; next < len(set.Jobs) && set.Jobs[next].Submit == now; next++ {
			batch.Subs = append(batch.Subs, Submission{Width: set.Jobs[next].Width, Estimate: set.Jobs[next].Estimate})
		}
		ops = append(ops, streamOp{Request: batch})
	}
	ds := staticStream(t, set.Machine, policy.FCFS)
	if newDecider != nil {
		ds = tunerStream(t, set.Machine, newDecider)
	}
	online := runDeliverLockstep(t, ds, ops).finished
	if len(online) != len(set.Jobs) {
		t.Fatalf("online finished %d of %d jobs", len(online), len(set.Jobs))
	}
	for _, info := range online {
		if off := finish[info.ID]; info.Started != off.Start || info.Finished != off.Finish {
			t.Fatalf("job %d: online over [%d, %d], offline over [%d, %d]",
				info.ID, info.Started, info.Finished, off.Start, off.Finish)
		}
	}
}

// sameFinished holds a scheduler's finished jobs to the oracle's records,
// in finish order.
func sameFinished(t testing.TB, got []JobInfo, want []plantest.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d jobs finished, the oracle's %d", len(got), len(want))
	}
	for i, w := range want {
		st := [...]JobState{StateCompleted, StateKilled, StateFailed}[w.State]
		if g := got[i]; g.ID != w.Job.ID || g.State != st || g.Started != w.Start || g.Finished != w.Finish {
			t.Fatalf("finished job %d: %d %s over [%d, %d], the oracle's %d %s over [%d, %d]",
				i, g.ID, g.State, g.Started, g.Finished, w.Job.ID, st, w.Start, w.Finish)
		}
	}
}

func TestReport(t *testing.T) {
	s := newFCFS(t, 4)
	// Job a: width 2, runs [0, 40) (reported done), waited 0.
	a, _ := s.Submit(2, 100)
	// Job b: width 4, waits for a's estimated end... but a completes at
	// 40, so b starts then and is killed at 40+50.
	b, _ := s.Submit(4, 50)
	s.Advance(40)
	if _, err := s.Complete(a.ID); err != nil {
		t.Fatal(err)
	}
	s.Advance(200)

	rep := s.Report()
	if rep.Jobs != 2 || rep.Killed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// a: run 40, wait 0, resp 40, slowdown 1, area 80.
	// b: run 50, wait 40, resp 90, slowdown 1.8, area 200.
	wantSLDwA := (80.0*1 + 200*1.8) / 280
	if diff := rep.SLDwA - wantSLDwA; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("SLDwA = %v, want %v", rep.SLDwA, wantSLDwA)
	}
	// Area 280 over capacity 4 x span 90.
	wantUtil := 280.0 / (4 * 90)
	if diff := rep.Util - wantUtil; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Util = %v, want %v", rep.Util, wantUtil)
	}
	if rep.MaxWait != 40 || rep.AWT != 20 || rep.ART != 65 {
		t.Fatalf("wait/resp stats wrong: %+v", rep)
	}
	_ = b
}

func TestReportEmpty(t *testing.T) {
	s := newFCFS(t, 4)
	s.Advance(123)
	rep := s.Report()
	if rep.Jobs != 0 || rep.SLDwA != 0 || rep.Now != 123 {
		t.Fatalf("empty report = %+v", rep)
	}
}

func TestDeliverValidatesAtomically(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(2, 100)
	// Batch with a valid completion but an invalid submission: nothing
	// may be applied.
	if _, err := s.Deliver(10, []job.ID{a.ID}, []Submission{{Width: 99, Estimate: 10}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	ai, _ := s.Job(a.ID)
	if ai.State != StateRunning {
		t.Fatalf("half-applied batch: a = %+v", ai)
	}
	if s.Now() != 10 {
		// The clock may legitimately advance to the delivery instant.
		t.Logf("now = %d", s.Now())
	}
	// Unknown completion also rejects the batch.
	if _, err := s.Deliver(20, []job.ID{777}, nil); err == nil {
		t.Fatal("unknown completion accepted")
	}
}
