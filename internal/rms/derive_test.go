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
// JobInfo, over the seeded plantest streams with failures and restores,
// for a static, a self-tuning and a backfilling driver. After every
// mutation: a waiting job's planned start is its entry in the completed
// plan in force, or NeverStart when that plan has none (too wide for the
// processors up, or a drained machine); a running or finished job's
// planned start is its start; and the infos Submit, Complete and Deliver
// return equal Job(id) read right after.
func TestJobInfosDerivedFromEngine(t *testing.T) {
	for _, tc := range []struct {
		name      string
		newDriver func() sim.Driver
	}{
		{"static SJF", func() sim.Driver { return &sim.Static{Policy: policy.SJF} }},
		{"dynP/advanced", func() sim.Driver { return sim.NewDynP(core.Advanced{}) }},
		{"EASY", func() sim.Driver { return &sim.EASY{Base: policy.FCFS} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var unplaced, placed int
			for seed := uint64(0); seed < 3; seed++ {
				s, err := New(plantest.Capacity, tc.newDriver(), 0)
				if err != nil {
					t.Fatal(err)
				}
				u, p := runDerivedStream(t, s, plantest.Stream(seed))
				unplaced += u
				placed += p
			}
			// A stream that never left a waiting job unplaced, or never
			// placed one, would check only half of the rule.
			if unplaced == 0 || placed == 0 {
				t.Fatalf("streams read %d unplaced and %d placed waiting jobs; need both", unplaced, placed)
			}
		})
	}
}

// runDerivedStream feeds one stream through s, checking the derivation
// after every event. It returns how many waiting-job reads found no plan
// entry and how many found one.
func runDerivedStream(t *testing.T, s *Scheduler, data []byte) (unplaced, placed int) {
	t.Helper()
	returned := func(info JobInfo, err error) {
		t.Helper()
		if err != nil {
			return
		}
		if got, err := s.Job(info.ID); err != nil || got != info {
			t.Fatalf("mutation returned %+v, Job(%d) reads %+v (%v)", info, info.ID, got, err)
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		width, est := plantest.SubmitShape(arg)
		sub := []Submission{{Width: width, Estimate: est}}
		st := s.Status()
		var infos []JobInfo
		var err error
		switch op % 8 {
		case 0, 1:
			infos, err = s.Deliver(st.Now, nil, sub)
		case 2:
			returned(s.Submit(width, est))
		case 3:
			if arg%2 == 0 {
				err = s.Advance(st.Now + 7*int64(arg))
			} else {
				infos, err = s.Deliver(st.Now+7*int64(arg), nil, nil)
			}
		case 4:
			if n := len(st.Running); n > 0 {
				id := st.Running[int(arg)%n].ID
				if arg%2 == 0 {
					returned(s.Complete(id))
				} else {
					infos, err = s.Deliver(st.Now, []job.ID{id}, nil)
				}
			}
		case 5:
			if n := len(st.Waiting); n > 0 {
				err = s.Cancel(st.Waiting[int(arg)%n].ID)
			}
		case 6:
			if eff := st.Capacity - st.FailedProcs; arg%2 == 0 && eff > 0 {
				err = s.Fail(1 + int(arg/2)%eff)
			} else if st.FailedProcs > 0 {
				err = s.Restore(1 + int(arg/2)%st.FailedProcs)
			}
		case 7:
			done := []job.ID{}
			if n := len(st.Running); n > 0 {
				if r := st.Running[int(arg)%n]; r.Started+r.Estimate > st.Now+int64(arg) {
					done = append(done, r.ID)
				}
			}
			infos, err = s.Deliver(st.Now+int64(arg), done, sub)
		}
		for _, info := range infos {
			returned(info, err)
		}
		u, p := checkDerived(t, s)
		unplaced += u
		placed += p
	}
	return unplaced, placed
}

// checkDerived holds the published image to the derivation rules against
// the engine's plan in force, read independently under the lock.
func checkDerived(t *testing.T, s *Scheduler) (unplaced, placed int) {
	t.Helper()
	s.mu.Lock()
	img := s.img.Load()
	nWaiting, nRunning := len(s.eng.Waiting()), len(s.eng.Running())
	starts := map[job.ID]int64{}
	if p := s.eng.Schedule(); p != nil {
		p.Complete()
		for _, e := range p.Entries {
			starts[e.Job.ID] = e.Start
		}
	}
	s.mu.Unlock()
	if len(img.Waiting) != nWaiting || len(img.Running) != nRunning {
		t.Fatalf("image holds %d waiting and %d running jobs, engine %d and %d",
			len(img.Waiting), len(img.Running), nWaiting, nRunning)
	}
	for _, w := range img.Waiting {
		want, ok := starts[w.ID]
		if !ok {
			want = NeverStart
			unplaced++
		} else {
			placed++
		}
		if w.State != StateWaiting || w.PlannedStart != want {
			t.Fatalf("t=%d: waiting %+v, want planned start %d", img.Now, w, want)
		}
	}
	for _, r := range img.Running {
		if r.State != StateRunning || r.PlannedStart != r.Started {
			t.Fatalf("t=%d: running %+v, want planned start = start", img.Now, r)
		}
	}
	for _, d := range img.Done {
		if d.PlannedStart != d.Started || d.Finished < d.Started {
			t.Fatalf("t=%d: finished %+v, want planned start = start <= finish", img.Now, d)
		}
	}
	return unplaced, placed
}
