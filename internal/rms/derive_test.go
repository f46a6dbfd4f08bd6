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
	for _, tc := range []struct {
		name string
		ds   func(t *testing.T) daemonStream
	}{
		{"static SJF", func(t *testing.T) daemonStream {
			return staticStream(t, plantest.Capacity, policy.SJF)
		}},
		{"dynP/advanced", func(t *testing.T) daemonStream {
			return tunerStream(t, plantest.Capacity, func() core.Decider { return core.Advanced{} })
		}},
		{"EASY", func(t *testing.T) daemonStream {
			return daemonStream{capacity: plantest.Capacity,
				newDriver: func(*plantest.Lanes) (sim.Driver, *sim.DynP, *plantest.Tuner) {
					return &sim.EASY{Base: policy.FCFS}, nil, nil
				},
				oracle: func() plantest.Step { return plantest.EASY{Base: policy.FCFS} }}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ds := tc.ds(t)
			var unplaced, placed int
			for seed := uint64(0); seed < 3; seed++ {
				end := runDeliverLockstep(t, ds, decodeStream(plantest.Stream(seed)))
				unplaced, placed = unplaced+end.unplaced, placed+end.placed
			}
			// A stream that never left a waiting job unplaced, or never
			// placed one, would check only half of the rule.
			if unplaced == 0 || placed == 0 {
				t.Fatalf("streams read %d unplaced and %d placed waiting jobs; need both", unplaced, placed)
			}
		})
	}
}

// checkDerived holds the published image's clock, failed and used
// processors and live jobs to the naive daemon's, and a drained machine's
// plan in force to the naive daemon's none: it has no entry. It returns
// how many waiting jobs the naive plan in force had no entry for and how
// many it had one for.
func checkDerived(t testing.TB, s *Scheduler, naive *plantest.Daemon) (unplaced, placed int) {
	t.Helper()
	img := s.img.Load()
	used := 0
	for _, r := range naive.Running {
		used += r.Job.Width
	}
	if img.Now != naive.Now || img.Failed != naive.Failed || img.used != used {
		t.Fatalf("image at t=%d with %d processors failed and %d used, the naive daemon at t=%d with %d and %d",
			img.Now, img.Failed, img.used, naive.Now, naive.Failed, used)
	}
	if len(img.Waiting) != len(naive.Waiting) || len(img.Running) != len(naive.Running) {
		t.Fatalf("image holds %d waiting and %d running jobs, the naive daemon %d and %d",
			len(img.Waiting), len(img.Running), len(naive.Waiting), len(naive.Running))
	}
	s.mu.Lock()
	sch := s.eng.Schedule()
	s.mu.Unlock()
	if naive.InForce == nil && sch != nil && len(sch.Entries) > 0 {
		t.Fatalf("t=%d: a machine with %d of %d processors failed plans %v", img.Now, img.Failed, naive.Capacity, sch.Entries)
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
