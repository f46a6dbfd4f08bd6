package rms

import (
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// runDeliverLockstep feeds a plantest event stream — two bytes an event —
// through the daemon's entry points, with a lockstep driver inside the
// Scheduler: every plan the daemon makes, including those of the sweep
// Deliver performs on its way to a later instant, is checked against the
// naive oracle, and the scheduler's invariants after every event. The
// ops mirror plantest.Run's; a daemon assigns its own IDs, so a cancelled
// job is re-submitted under a fresh one, and the restart op becomes what
// only a daemon has: one batch completing a job and submitting another at
// the same later instant.
func runDeliverLockstep(t *testing.T, driver sim.Driver, data []byte) {
	s, err := New(plantest.Capacity, driver, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		width, est := plantest.SubmitShape(arg)
		sub := []Submission{{Width: width, Estimate: est}}
		st := s.Status()
		var err error
		switch op % 8 {
		case 0, 1, 2:
			_, err = s.Deliver(st.Now, nil, sub)
		case 3:
			_, err = s.Deliver(st.Now+7*int64(arg), nil, nil)
		case 4:
			if n := len(st.Running); n > 0 {
				_, err = s.Deliver(st.Now, []job.ID{st.Running[int(arg)%n].ID}, nil)
			}
		case 5:
			if n := len(st.Waiting); n > 0 {
				if err = s.Cancel(st.Waiting[int(arg)%n].ID); err == nil && arg >= 128 {
					_, err = s.Submit(width, est)
				}
			}
		case 6:
			if eff := st.Capacity - st.FailedProcs; arg%2 == 0 && eff > 0 {
				err = s.Fail(1 + int(arg/2)%eff)
			} else if st.FailedProcs > 0 {
				err = s.Restore(1 + int(arg/2)%st.FailedProcs)
			}
		case 7:
			at := st.Now + int64(arg)
			var done []job.ID
			if n := len(st.Running); n > 0 {
				if r := st.Running[int(arg)%n]; r.Started+r.Estimate > at { // still running then
					done = []job.ID{r.ID}
				}
			}
			_, err = s.Deliver(at, done, sub)
		}
		if err == nil {
			err = s.CheckInvariants()
		}
		if err != nil {
			t.Fatalf("after event %d (op %d): %v", i/2, op%8, err)
		}
	}
}

// TestDeliverLockstep holds the daemon to BC-1 and BC-2: the seeded
// streams of the simulator's lockstep tests, through Deliver, Submit,
// Cancel, Fail and Restore, under a static driver and a self-tuning one.
// Both lanes — spliced views and full-sort fallback — must have planned.
func TestDeliverLockstep(t *testing.T) {
	var lanes plantest.Lanes
	for seed := uint64(0); seed < 3; seed++ {
		runDeliverLockstep(t, plantest.Lockstep(t, &sim.Static{Policy: policy.SJF}, &lanes), plantest.Stream(seed))
		d := sim.NewDynP(core.Preferred{Policy: policy.SJF})
		ref := plantest.NewTuner(core.Preferred{Policy: policy.SJF}, core.MetricSLDwA)
		runDeliverLockstep(t, plantest.TunerLockstep(t, d, d.Tuner, ref, &lanes), plantest.Stream(seed))
	}
	if lanes.View == 0 || lanes.Sort == 0 {
		t.Errorf("%d plans read the views, %d sorted in full; the streams must reach both", lanes.View, lanes.Sort)
	}
}
