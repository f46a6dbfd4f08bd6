package rms

import (
	"strings"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// TestFailMarksWideWaitersUnplaceable: a job too wide for the processors
// up stays queued, unplaceable, while time passes with nothing running,
// and starts on the restore that makes it fit. TestShortStreamsLockstep
// holds the same shape to the naive daemon: [fail #0 submit 3x1 tick +3
// restore #0].
func TestFailMarksWideWaitersUnplaceable(t *testing.T) {
	s := newFCFS(t, 8)
	s.Submit(8, 100)
	wide, _ := s.Submit(6, 50)
	if err := s.Fail(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(500); err != nil {
		t.Fatal(err)
	}
	if wi, _ := s.Job(wide.ID); wi.State != StateWaiting || wi.PlannedStart != NeverStart {
		t.Fatalf("wide waiter after advance = %+v, want waiting with PlannedStart=NeverStart", wi)
	}
	if err := s.Restore(4); err != nil {
		t.Fatal(err)
	}
	if wi, _ := s.Job(wide.ID); wi.State != StateRunning || wi.Started != 500 {
		t.Fatalf("wide waiter after restore = %+v, want running at 500", wi)
	}
}

// TestFailEverything: a job queued on a drained machine waits while time
// passes and starts on the restore. TestShortStreamsLockstep holds the
// same shape to the naive daemon: [fail #0 fail #0 fail #0 submit 1x1
// tick +3 restore #0].
func TestFailEverything(t *testing.T) {
	s := newFCFS(t, 8)
	if err := s.Fail(8); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Submit(1, 10)
	if err := s.Advance(1000); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(8); err != nil {
		t.Fatal(err)
	}
	if ci, _ := s.Job(c.ID); ci.State != StateRunning || ci.Started != 1000 {
		t.Fatalf("c after restore = %+v", ci)
	}
}

func TestFailRestoreValidation(t *testing.T) {
	s := newFCFS(t, 8)
	if err := s.Fail(0); err == nil {
		t.Error("fail 0 accepted")
	}
	if err := s.Fail(9); err == nil {
		t.Error("failing more than capacity accepted")
	}
	if err := s.Restore(1); err == nil {
		t.Error("restore with nothing failed accepted")
	}
	if err := s.Fail(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(5); err == nil {
		t.Error("cumulative fail beyond capacity accepted")
	}
	if err := s.Restore(5); err == nil {
		t.Error("restore beyond failed accepted")
	}
	if err := s.Restore(0); err == nil {
		t.Error("restore 0 accepted")
	}
	if err := s.Restore(4); err != nil {
		t.Fatal(err)
	}
}

func TestVictimPolicyConfigurable(t *testing.T) {
	s := newFCFS(t, 8)
	s.SetVictimPolicy(VictimWidestFirst)
	wide, _ := s.Submit(4, 100) // started first, but widest
	s.Advance(10)
	narrow, _ := s.Submit(2, 100)
	s.Advance(20)
	narrow2, _ := s.Submit(2, 100)
	if err := s.Fail(4); err != nil {
		t.Fatal(err)
	}
	// Widest-first frees 4 procs with one kill; last-started would have
	// killed both narrow jobs instead.
	wi, _ := s.Job(wide.ID)
	if wi.State != StateFailed {
		t.Errorf("widest job = %+v, want failed", wi)
	}
	for _, id := range []job.ID{narrow.ID, narrow2.ID} {
		if info, _ := s.Job(id); info.State != StateRunning {
			t.Errorf("narrow job %d = %+v, want running", id, info)
		}
	}
	// nil restores the default.
	s.SetVictimPolicy(nil)
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	n2, _ := s.Job(narrow2.ID)
	if n2.State != StateFailed {
		t.Errorf("after default policy, last-started = %+v, want failed", n2)
	}
}

func TestVictimPolicyBackstop(t *testing.T) {
	// A buggy policy that returns no usable victims must not leave the
	// machine oversubscribed: the default order backstops it.
	s := newFCFS(t, 8)
	s.SetVictimPolicy(func(now int64, running []plan.Running) []plan.Running {
		return nil
	})
	s.Submit(4, 100)
	s.Submit(4, 100)
	if err := s.Fail(6); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.UsedProcs > st.Capacity-st.FailedProcs {
		t.Fatalf("oversubscribed after buggy victim policy: %+v", st)
	}
}

func TestFailedJobsInReport(t *testing.T) {
	s := newFCFS(t, 8)
	s.Submit(4, 100)
	s.Advance(10)
	if err := s.Fail(8); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Jobs != 1 || rep.Failed != 1 || rep.Killed != 0 {
		t.Fatalf("report = %+v, want 1 failed job", rep)
	}
	if StateFailed.String() != "failed" {
		t.Fatal("StateFailed name wrong")
	}
}

// rogueDriver plans every waiting job at the current instant regardless
// of capacity — the pathological input that used to panic startDue.
type rogueDriver struct{}

func (rogueDriver) Name() string                { return "rogue" }
func (rogueDriver) ActivePolicy() policy.Policy { return policy.FCFS }
func (rogueDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	sch := &plan.Schedule{Now: now, Capacity: capacity, Policy: policy.FCFS}
	for _, j := range waiting {
		sch.Entries = append(sch.Entries, plan.Entry{Job: j, Start: now})
	}
	return sch
}

func TestRogueDriverOversubscriptionDegradesGracefully(t *testing.T) {
	s, err := New(4, rogueDriver{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The rogue plan wants all three on the machine at once (10 > 4
	// procs). startDue must start what fits and skip the rest — the old
	// code panicked here.
	s.Submit(3, 100)
	s.Submit(3, 100)
	s.Submit(4, 100)
	st := s.Status()
	if st.UsedProcs > st.Capacity {
		t.Fatalf("oversubscribed: %+v", st)
	}
	if len(st.Running) != 1 || len(st.Waiting) != 2 {
		t.Fatalf("status = %+v, want 1 running, 2 skipped", st)
	}
	// Advancing over the stale infeasible entries must terminate and
	// still fire the estimate kill at t=100.
	if err := s.Advance(150); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Finished()); got == 0 {
		t.Fatal("estimate expiry never fired under rogue driver")
	}
}

// TestQuoteUnderRogueDriver: a twin planned by a rogue driver still
// answers. It runs forward one expiry at a time, each kill frees the
// machine for the next job in line, and the loop ends with no step cap.
func TestQuoteUnderRogueDriver(t *testing.T) {
	s, err := New(4, rogueDriver{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableQuotes(func() sim.Driver { return rogueDriver{} }); err != nil {
		t.Fatal(err)
	}
	s.Submit(3, 100)
	s.Submit(3, 100)
	s.Submit(4, 100)
	qs, err := s.Quote(2, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	// At 0 job 1 runs, and the rogue plan's other entries do not fit; at
	// each kill the first entry that fits starts: job 2 at 100, job 3 at
	// 200, then both quoted jobs at 300.
	for i, q := range qs {
		if q.Start != 300 || q.Finish != 350 || q.Wait != 300 {
			t.Errorf("quote %d = %+v, want a start at 300", i, q)
		}
	}
}

func TestDeliverDuplicateCompletionRejected(t *testing.T) {
	s := newFCFS(t, 4)
	a, _ := s.Submit(2, 100)
	if _, err := s.Deliver(10, []job.ID{a.ID, a.ID}, nil); err == nil {
		t.Fatal("duplicate completion accepted")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("error %q does not mention the duplicate", err)
	}
	// Atomicity: the rejected batch must not have completed the job.
	ai, _ := s.Job(a.ID)
	if ai.State != StateRunning {
		t.Fatalf("a = %+v, want still running", ai)
	}
	// The same completion delivered once still works.
	if _, err := s.Deliver(10, []job.ID{a.ID}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverSameInstantKillCompleteSubmit(t *testing.T) {
	// At one timestamp: a expires (killed), b completes (reported), and
	// a new full-width job is submitted. All must take effect before the
	// single replanning step, so the submission sees the whole machine.
	s := newFCFS(t, 4)
	a, _ := s.Submit(2, 50)  // expires at 50
	b, _ := s.Submit(2, 100) // completes early at 50
	infos, err := s.Deliver(50, []job.ID{b.ID}, []Submission{{Width: 4, Estimate: 30}})
	if err != nil {
		t.Fatal(err)
	}
	ai, _ := s.Job(a.ID)
	if ai.State != StateKilled || ai.Finished != 50 {
		t.Errorf("a = %+v, want killed at 50", ai)
	}
	bi, _ := s.Job(b.ID)
	if bi.State != StateCompleted || bi.Finished != 50 {
		t.Errorf("b = %+v, want completed at 50", bi)
	}
	if infos[0].State != StateRunning || infos[0].Started != 50 {
		t.Errorf("submission = %+v, want running at 50 on the freed machine", infos[0])
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitWiderThanEffectiveQueues(t *testing.T) {
	s := newFCFS(t, 8)
	if err := s.Fail(6); err != nil {
		t.Fatal(err)
	}
	// Wider than the 2 live processors but within installed capacity:
	// queue it for better days.
	info, err := s.Submit(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateWaiting || info.PlannedStart != NeverStart {
		t.Fatalf("info = %+v", info)
	}
	// Wider than installed capacity: rejected outright.
	if _, err := s.Submit(9, 10); err == nil {
		t.Error("width 9 accepted on an 8-processor machine")
	}
}

func TestVictimOrderFunctions(t *testing.T) {
	mk := func(id job.ID, width int, start int64) plan.Running {
		return plan.Running{Job: &job.Job{ID: id, Width: width, Estimate: 100, Runtime: 100}, Start: start}
	}
	in := []plan.Running{mk(1, 2, 0), mk(2, 6, 5), mk(3, 2, 5)}
	last := VictimLastStarted(0, append([]plan.Running(nil), in...))
	if last[0].Job.ID != 3 || last[1].Job.ID != 2 || last[2].Job.ID != 1 {
		t.Errorf("VictimLastStarted order = %v, %v, %v", last[0].Job.ID, last[1].Job.ID, last[2].Job.ID)
	}
	wide := VictimWidestFirst(0, append([]plan.Running(nil), in...))
	if wide[0].Job.ID != 2 {
		t.Errorf("VictimWidestFirst first = %v, want the width-6 job", wide[0].Job.ID)
	}
}

var _ sim.Driver = rogueDriver{}
