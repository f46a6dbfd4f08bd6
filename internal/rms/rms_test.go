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

func TestSubmitStartsImmediatelyOnIdleMachine(t *testing.T) {
	s := newFCFS(t, 8)
	info, err := s.Submit(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateRunning || info.Started != 0 {
		t.Fatalf("job = %+v, want running at 0", info)
	}
	st := s.Status()
	if st.UsedProcs != 4 || len(st.Running) != 1 || len(st.Waiting) != 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newFCFS(t, 8)
	if _, err := s.Submit(0, 10); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := s.Submit(9, 10); err == nil {
		t.Error("width 9 accepted on 8-processor machine")
	}
	if _, err := s.Submit(1, 0); err == nil {
		t.Error("estimate 0 accepted")
	}
}

func TestQueueingAndPlannedStart(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(4, 100)
	b, err := s.Submit(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != StateRunning {
		t.Fatalf("a = %+v", a)
	}
	if b.State != StateWaiting || b.PlannedStart != 100 {
		t.Fatalf("b = %+v, want waiting with planned start 100", b)
	}
}

func TestEarlyCompletionPullsWorkForward(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(4, 100)
	s.Submit(4, 50)
	if err := s.Advance(30); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Complete(a.ID); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if len(st.Running) != 1 || st.Running[0].Started != 30 {
		t.Fatalf("b should start at 30, status %+v", st)
	}
}

func TestKillAtEstimate(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(4, 100)
	if err := s.Advance(150); err != nil {
		t.Fatal(err)
	}
	info, err := s.Job(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateKilled || info.Finished != 100 {
		t.Fatalf("job = %+v, want killed at 100", info)
	}
}

func TestKillFreesProcessorsForWaiting(t *testing.T) {
	s := newFCFS(t, 4)
	s.Submit(4, 100)
	b, _ := s.Submit(2, 50)
	if err := s.Advance(120); err != nil {
		t.Fatal(err)
	}
	info, _ := s.Job(b.ID)
	if info.State != StateRunning || info.Started != 100 {
		t.Fatalf("b = %+v, want started at 100 after the kill", info)
	}
}

func TestCompleteValidation(t *testing.T) {
	s := newFCFS(t, 4)
	if _, err := s.Complete(99); err == nil {
		t.Error("unknown job accepted")
	}
	s.Submit(4, 100)
	b, _ := s.Submit(1, 10)
	if _, err := s.Complete(b.ID); err == nil {
		t.Error("completing a waiting job accepted")
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

func TestAdvanceBackwardsRejected(t *testing.T) {
	s := newFCFS(t, 4)
	if err := s.Advance(100); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(50); err == nil {
		t.Fatal("clock moved backwards")
	}
}

func TestBackfillingOnline(t *testing.T) {
	// 8 processors. a: width 6 runs [0, 100). b: width 8 waits for 100.
	// c: width 2, est 50 backfills immediately.
	s := newFCFS(t, 8)
	s.Submit(6, 100)
	b, _ := s.Submit(8, 100)
	c, _ := s.Submit(2, 50)
	ci, _ := s.Job(c.ID)
	if ci.State != StateRunning || ci.Started != 0 {
		t.Fatalf("c = %+v, want backfilled at 0", ci)
	}
	bi, _ := s.Job(b.ID)
	if bi.State != StateWaiting || bi.PlannedStart != 100 {
		t.Fatalf("b = %+v", bi)
	}
}

func TestDynPDriverOnline(t *testing.T) {
	d := sim.NewDynP(core.Preferred{Policy: policy.SJF})
	s, err := New(8, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A long and a short job behind a blocker: SJF should order the
	// short one first once the blocker frees the machine.
	s.Submit(8, 100)            // blocker
	long, _ := s.Submit(8, 500) // submitted first
	short, _ := s.Submit(8, 10) // shorter, submitted second
	li, _ := s.Job(long.ID)
	si, _ := s.Job(short.ID)
	if !(si.PlannedStart < li.PlannedStart) {
		t.Fatalf("SJF ordering violated: short %d, long %d", si.PlannedStart, li.PlannedStart)
	}
	if st := s.Status(); st.ActivePolicy != "SJF" {
		t.Fatalf("active policy = %v", st.ActivePolicy)
	}
}

func TestFinishedLog(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(2, 100)
	s.Advance(10)
	s.Complete(a.ID)
	b, _ := s.Submit(2, 20)
	s.Advance(50) // b killed at 30
	done := s.Finished()
	if len(done) != 2 {
		t.Fatalf("finished = %+v", done)
	}
	if done[0].ID != a.ID || done[0].State != StateCompleted {
		t.Fatalf("first = %+v", done[0])
	}
	if done[1].ID != b.ID || done[1].State != StateKilled || done[1].Finished != 30 {
		t.Fatalf("second = %+v", done[1])
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

// The online-equals-offline property of the shared engine: each seeded job
// set runs once through the offline simulator (sim.Run) and once through
// the online scheduler, fed one Deliver batch at each of the simulator's
// submission and completion instants, for static FCFS and the paper's
// three deciders. Both sides plan with lockstep drivers, so every plan is
// also held to the naive oracle. Each job must start and finish at
// identical times in the same final state, and a self-tuning driver must
// take an identical decision trace. The online trace carries one extra
// leading decision from the construction-time replan, whose outcome is
// decider-specific; every later decision must match the offline one
// exactly. The three tests below split the seeds and drivers of that one
// property; all of them drive it through runDifferential.

// differentialSeeds are the property's seeded sets.
var differentialSeeds = func() []uint64 {
	var seeds []uint64
	for seed := uint64(1); seed <= 32; seed++ {
		seeds = append(seeds, seed)
	}
	return seeds
}()

// differentialDeciders are the paper's three deciders.
var differentialDeciders = map[string]func() core.Decider{
	"simple":        func() core.Decider { return core.Simple{} },
	"advanced":      func() core.Decider { return core.Advanced{} },
	"preferred-sjf": func() core.Decider { return core.Preferred{Policy: policy.SJF} },
}

// TestPropertyOnlineMatchesOfflineSim holds static FCFS to the property.
func TestPropertyOnlineMatchesOfflineSim(t *testing.T) {
	for _, seed := range differentialSeeds {
		runDifferential(t, differentialSet(seed), differentialDriver(t, nil))
	}
}

// TestOnlineMatchesOfflineRegressionSeeds pins seeds that once diverged,
// under static FCFS and each decider.
func TestOnlineMatchesOfflineRegressionSeeds(t *testing.T) {
	for _, seed := range []uint64{0xbf1935662dda1936} {
		runDifferential(t, differentialSet(seed), differentialDriver(t, nil))
		for _, newDecider := range differentialDeciders {
			runDifferential(t, differentialSet(seed), differentialDriver(t, newDecider))
		}
	}
}

// TestDifferentialSimVsRMS holds each decider to the property.
func TestDifferentialSimVsRMS(t *testing.T) {
	for name, newDecider := range differentialDeciders {
		t.Run(name, func(t *testing.T) {
			for _, seed := range differentialSeeds {
				runDifferential(t, differentialSet(seed), differentialDriver(t, newDecider))
			}
		})
	}
}

// differentialDriver returns a factory of lockstep-wrapped drivers: static
// FCFS when newDecider is nil, else dynP with a traced tuner.
func differentialDriver(t *testing.T, newDecider func() core.Decider) func() (sim.Driver, *sim.DynP) {
	return func() (sim.Driver, *sim.DynP) {
		if newDecider == nil {
			return plantest.Lockstep(t, &sim.Static{Policy: policy.FCFS}, new(plantest.Lanes)), nil
		}
		d := sim.NewDynP(newDecider())
		d.Tuner.EnableTrace()
		ref := plantest.NewTuner(newDecider(), core.MetricSLDwA)
		return plantest.TunerLockstep(t, d, d.Tuner, ref, new(plantest.Lanes)), d
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

func runDifferential(t *testing.T, set *job.Set, newDriver func() (sim.Driver, *sim.DynP)) {
	offDrv, offDynP := newDriver()
	offline, err := sim.Run(set, offDrv)
	if err != nil {
		t.Fatal(err)
	}
	start := make(map[job.ID]int64, len(set.Jobs))
	finish := make(map[job.ID]int64, len(set.Jobs))
	instants := make([]int64, 0, 2*len(set.Jobs))
	for _, rec := range offline.Records {
		start[rec.Job.ID] = rec.Start
		finish[rec.Job.ID] = rec.Finish
		instants = append(instants, rec.Job.Submit, rec.Finish)
	}
	slices.Sort(instants)

	onDrv, onDynP := newDriver()
	online, err := New(set.Machine, onDrv, offline.First)
	if err != nil {
		t.Fatal(err)
	}
	// The simulator replans at every distinct submission or completion
	// instant; deliver one batch per such instant so the online side takes
	// exactly the same replanning steps. Jobs that exhaust their estimate
	// get no client completion — Deliver's kill sweep must terminate them
	// at the very same instant.
	onlineID := make(map[job.ID]job.ID, len(set.Jobs)) // set job -> online job
	subIdx := 0
	for _, now := range slices.Compact(instants) {
		var done []job.ID
		for _, j := range set.Jobs {
			if j.Runtime < j.Estimate && finish[j.ID] == now {
				done = append(done, onlineID[j.ID])
			}
		}
		var subs []Submission
		first := subIdx
		for ; subIdx < len(set.Jobs) && set.Jobs[subIdx].Submit == now; subIdx++ {
			subs = append(subs, Submission{Width: set.Jobs[subIdx].Width, Estimate: set.Jobs[subIdx].Estimate})
		}
		infos, err := online.Deliver(now, done, subs)
		if err != nil {
			t.Fatalf("%s: deliver at t=%d: %v", set.Name, now, err)
		}
		for i, info := range infos {
			onlineID[set.Jobs[first+i].ID] = info.ID
		}
	}

	if got := len(online.Finished()); got != len(set.Jobs) {
		t.Fatalf("online finished %d of %d jobs", got, len(set.Jobs))
	}
	for _, j := range set.Jobs {
		info, err := online.Job(onlineID[j.ID])
		if err != nil {
			t.Fatal(err)
		}
		wantState := StateCompleted
		if j.Runtime == j.Estimate {
			wantState = StateKilled
		}
		if info.Started != start[j.ID] || info.Finished != finish[j.ID] || info.State != wantState {
			t.Fatalf("job %d: online %s over [%d, %d], offline %s over [%d, %d]",
				j.ID, info.State, info.Started, info.Finished, wantState, start[j.ID], finish[j.ID])
		}
	}
	if offDynP == nil {
		return
	}
	offT, onT := offDynP.Tuner.Trace(), onDynP.Tuner.Trace()
	if len(onT) != len(offT)+1 {
		t.Fatalf("decision traces: online took %d steps, offline %d (want offline+1 for the construction replan)",
			len(onT), len(offT))
	}
	for i, a := range offT {
		b := onT[i+1]
		// The first offline Old is the tuner's initial policy; the online
		// side already took its construction decision by then, so Old is
		// only comparable from the second shared step on.
		if a.Time != b.Time || a.Chosen != b.Chosen || (i > 0 && a.Old != b.Old) || !slices.Equal(a.Values, b.Values) {
			t.Fatalf("decision %d: offline t=%d %s->%s on %v, online t=%d %s->%s on %v",
				i, a.Time, a.Old, a.Chosen, a.Values, b.Time, b.Old, b.Chosen, b.Values)
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

func TestDeliverBatchAtomicOrdering(t *testing.T) {
	// Machine 4: a (width 2) runs [0, 100) est 100; d (width 2) runs
	// beside it. At t=50, one batch delivers a's completion together
	// with a new submission; the new job must see the freed processors
	// in the same replanning step.
	s := newFCFS(t, 4)
	a, _ := s.Submit(2, 100)
	s.Submit(2, 200)
	infos, err := s.Deliver(50, []job.ID{a.ID}, []Submission{{Width: 2, Estimate: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("infos = %+v", infos)
	}
	if infos[0].State != StateRunning || infos[0].Started != 50 {
		t.Fatalf("batched submission should start immediately: %+v", infos[0])
	}
	ai, _ := s.Job(a.ID)
	if ai.State != StateCompleted || ai.Finished != 50 {
		t.Fatalf("a = %+v", ai)
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

func TestDeliverCompletionBeatsKillAtSameInstant(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(2, 100)
	// The client reports completion exactly at the estimate expiry; the
	// job must count as completed, not killed.
	if _, err := s.Deliver(100, []job.ID{a.ID}, nil); err != nil {
		t.Fatal(err)
	}
	ai, _ := s.Job(a.ID)
	if ai.State != StateCompleted || ai.Finished != 100 {
		t.Fatalf("a = %+v", ai)
	}
}

func TestDeliverRejectsPastTime(t *testing.T) {
	s := newFCFS(t, 4)
	s.Advance(100)
	if _, err := s.Deliver(50, nil, nil); err == nil {
		t.Fatal("delivery in the past accepted")
	}
}
