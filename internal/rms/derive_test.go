package rms

import (
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// TestJobInfosDerivedFromEngine pins how an image derives a live job's
// JobInfo, over the seeded daemon streams with failures and restores,
// for a static, a self-tuning and a backfilling driver (checkDerived,
// after every event): a waiting job's planned start is its entry in the
// plan in force, or NeverStart when that plan has none (too wide for the
// processors up, or a drained machine); a running or finished job's
// planned start is its start; and the infos Submit, Complete and Deliver
// return equal Job(id) read right after.
func TestJobInfosDerivedFromEngine(t *testing.T) {
	var lanes plantest.Lanes
	for _, tc := range []struct {
		name      string
		newDriver lockstepFactory
		oracle    func() plantest.Step
	}{
		{"static SJF", staticLockstep(t, policy.SJF, &lanes), func() plantest.Step { return plantest.Fixed{Policy: policy.SJF} }},
		{"dynP/advanced", tunerLockstep(t, func() core.Decider { return core.Advanced{} }, &lanes),
			func() plantest.Step { return plantest.NewTuner(core.Advanced{}, core.MetricSLDwA) }},
		{"EASY", func() (sim.Driver, *sim.DynP, *plantest.Tuner) { return &sim.EASY{Base: policy.FCFS}, nil, nil },
			func() plantest.Step { return plantest.EASY{Base: policy.FCFS} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var unplaced, placed int
			for seed := uint64(0); seed < 3; seed++ {
				u, p := runDeliverLockstep(t, tc.newDriver, tc.oracle(), &lanes, plantest.Stream(seed))
				unplaced, placed = unplaced+u, placed+p
			}
			// A stream that never left a waiting job unplaced, or never
			// placed one, would check only half of the rule.
			if unplaced == 0 || placed == 0 {
				t.Fatalf("streams read %d unplaced and %d placed waiting jobs; need both", unplaced, placed)
			}
		})
	}
}

// checkDerived holds the published image's live jobs to the naive
// daemon's. It returns how many waiting jobs the naive plan in force had
// no entry for and how many it had one for.
func checkDerived(t *testing.T, s *Scheduler, naive *plantest.Daemon) (unplaced, placed int) {
	t.Helper()
	img := s.img.Load()
	if len(img.Waiting) != len(naive.Waiting) || len(img.Running) != len(naive.Running) {
		t.Fatalf("image holds %d waiting and %d running jobs, the naive daemon %d and %d",
			len(img.Waiting), len(img.Running), len(naive.Waiting), len(naive.Running))
	}
	starts := map[job.ID]int64{}
	for _, e := range naive.InForce {
		starts[e.Job.ID] = e.Start
	}
	for i, w := range img.Waiting {
		want, ok := starts[w.ID]
		if !ok {
			want = NeverStart
			unplaced++
		} else {
			placed++
		}
		if w.ID != naive.Waiting[i].ID || w.State != StateWaiting || w.PlannedStart != want {
			t.Fatalf("t=%d: waiting %+v, want job %d planned to start at %d", img.Now, w, naive.Waiting[i].ID, want)
		}
	}
	for i, r := range img.Running {
		if n := naive.Running[i]; r.ID != n.Job.ID || r.State != StateRunning || r.Started != n.Start || r.PlannedStart != r.Started {
			t.Fatalf("t=%d: running %+v, want job %d started and planned at %d", img.Now, r, n.Job.ID, n.Start)
		}
	}
	for _, d := range img.Done {
		if d.PlannedStart != d.Started || d.Finished < d.Started {
			t.Fatalf("t=%d: finished %+v, want planned start = start <= finish", img.Now, d)
		}
	}
	return unplaced, placed
}
