package engine

// White-box tests: corrupt the engine's internal state directly and
// check that CheckInvariants catches each class of damage. The rms
// package used to carry these against its own bookkeeping; with the
// state moved here, the corruption coverage moves with it. The two
// queues are the only record of where a job is, so a job listed twice is
// found by scanning them.

import (
	"strings"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
)

// seeded returns an engine with two running jobs (widths 2 and 1) and
// one waiting job, built by hand so the tests do not depend on a driver.
func seeded() *Engine {
	e := New(4, nil, 0)
	for i, w := range []int{2, 1} {
		j := &job.Job{ID: job.ID(i + 1), Width: w, Estimate: 100, Runtime: 100}
		e.running = append(e.running, plan.Running{Job: j, Start: 0})
		e.used += w
	}
	e.Submit(&job.Job{ID: 3, Width: 4, Estimate: 50, Runtime: 50})
	return e
}

func TestCheckInvariantsHealthy(t *testing.T) {
	if err := seeded().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(e *Engine)
		want    string
	}{
		{"negative failed", func(e *Engine) { e.failed = -1 }, "failed processors"},
		{"failed beyond capacity", func(e *Engine) { e.failed = 5 }, "failed processors"},
		{"used count drifted", func(e *Engine) { e.used = 1 }, "recorded in use"},
		{"oversubscribed", func(e *Engine) { e.failed = 3 }, "exceed effective capacity"},
		{"duplicate running entry", func(e *Engine) {
			e.running = append(e.running, e.running[0])
		}, "running twice"},
		{"duplicate waiting entry", func(e *Engine) {
			e.waiting = append(e.waiting, e.waiting[0])
		}, "waiting twice"},
		{"plan recycled under the engine", func(e *Engine) {
			e.plan = &plan.Schedule{}
			e.plan.Release()
		}, "superseded"},
		{"waiting and running", func(e *Engine) {
			e.waiting = append(e.waiting, e.running[1].Job)
		}, "both waiting and running"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := seeded()
			tc.corrupt(e)
			err := e.CheckInvariants()
			if err == nil {
				t.Fatalf("%s not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRemoveWaitingPreservesOrderAndIndex(t *testing.T) {
	e := New(8, nil, 0)
	for i := 1; i <= 5; i++ {
		e.Submit(&job.Job{ID: job.ID(i), Width: 1, Estimate: 10, Runtime: 10})
	}
	if _, ok := e.removeWaiting(3); !ok {
		t.Fatal("middle removal failed")
	}
	if _, ok := e.removeWaiting(1); !ok {
		t.Fatal("front removal failed")
	}
	want := []job.ID{2, 4, 5}
	if len(e.waiting) != len(want) {
		t.Fatalf("queue length %d, want %d", len(e.waiting), len(want))
	}
	for i, id := range want {
		if e.waiting[i].ID != id {
			t.Fatalf("queue[%d] = %d, want %d (submission order lost)", i, e.waiting[i].ID, id)
		}
		if e.waitingAt(id) != i {
			t.Fatalf("waitingAt(%d) = %d, want %d", id, e.waitingAt(id), i)
		}
	}
	for _, id := range []job.ID{1, 3} {
		if e.IsWaiting(id) {
			t.Fatalf("removed job %d still waiting", id)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFinishPreservesStartOrderAndIndex(t *testing.T) {
	e := New(8, nil, 0)
	for i := 1; i <= 4; i++ {
		j := &job.Job{ID: job.ID(i), Width: 1, Estimate: 100, Runtime: 100}
		e.running = append(e.running, plan.Running{Job: j, Start: int64(i)})
		e.used++
	}
	if !e.Finish(2, FinishCompleted) {
		t.Fatal("finish failed")
	}
	want := []job.ID{1, 3, 4}
	for i, id := range want {
		if e.running[i].Job.ID != id {
			t.Fatalf("running[%d] = %d, want %d (start order lost)", i, e.running[i].Job.ID, id)
		}
		if e.runningAt(id) != i {
			t.Fatalf("runningAt(%d) = %d, want %d", id, e.runningAt(id), i)
		}
	}
	if e.IsRunning(2) {
		t.Fatal("finished job 2 still running")
	}
	if e.used != 3 {
		t.Fatalf("used = %d, want 3", e.used)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVictimLastStarted: a processor failure kills the last started
// first, and of jobs started together the higher ID first.
func TestVictimLastStarted(t *testing.T) {
	mk := func(id job.ID, width int, start int64) plan.Running {
		return plan.Running{Job: &job.Job{ID: id, Width: width, Estimate: 100, Runtime: 100}, Start: start}
	}
	last := victimLastStarted([]plan.Running{mk(1, 2, 0), mk(2, 6, 5), mk(3, 2, 5)})
	if last[0].Job.ID != 3 || last[1].Job.ID != 2 || last[2].Job.ID != 1 {
		t.Errorf("victimLastStarted order = %v, %v, %v", last[0].Job.ID, last[1].Job.ID, last[2].Job.ID)
	}
}
