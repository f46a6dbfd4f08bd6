package rms

import (
	"strings"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

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

var _ sim.Driver = rogueDriver{}
