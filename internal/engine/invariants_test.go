package engine

// White-box tests: corrupt the engine's internal state directly and
// check that CheckInvariants catches each class of damage. The rms
// package used to carry these against its own bookkeeping; with the
// state moved here, the corruption coverage moves with it.

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
		e.runningIdx[j.ID] = len(e.running)
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
		{"waiting index dropped", func(e *Engine) { delete(e.waitingIdx, 3) }, "waiting index"},
		{"waiting index stale", func(e *Engine) { e.waitingIdx[3] = 7 }, "indexed at"},
		{"running index dropped", func(e *Engine) { delete(e.runningIdx, 1) }, "running index"},
		{"running index swapped", func(e *Engine) { e.runningIdx[1], e.runningIdx[2] = 1, 0 }, "indexed at"},
		{"used count drifted", func(e *Engine) { e.used = 1 }, "recorded in use"},
		{"oversubscribed", func(e *Engine) { e.failed = 3 }, "exceed effective capacity"},
		{"duplicate running entry", func(e *Engine) {
			e.running = append(e.running, e.running[0])
			e.runningIdx[e.running[0].Job.ID] = 2
		}, "running index"},
		{"plan recycled under the engine", func(e *Engine) {
			e.plan = &plan.Schedule{}
			e.plan.Release()
		}, "superseded"},
		{"waiting and running", func(e *Engine) {
			j := e.running[1].Job
			e.waitingIdx[j.ID] = len(e.waiting)
			e.waiting = append(e.waiting, j)
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
		if e.waitingIdx[id] != i {
			t.Fatalf("index[%d] = %d, want %d", id, e.waitingIdx[id], i)
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
		e.runningIdx[j.ID] = len(e.running)
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
		if e.runningIdx[id] != i {
			t.Fatalf("index[%d] = %d, want %d", id, e.runningIdx[id], i)
		}
	}
	if e.used != 3 {
		t.Fatalf("used = %d, want 3", e.used)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
