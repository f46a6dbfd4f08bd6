// Checkpoint capture and restore for the online scheduler. A checkpoint
// is the full externally observable state — machine, queues, finished
// history, plan, driver and observer state — cut after an event
// applied, such that a virgin scheduler restored from it is
// indistinguishable from one that replayed every event since genesis:
// same Status, same Report (the float aggregates are refolded in the
// original finish order, so even the bit patterns match), same job
// histories, and the same future behaviour (the tuner's decision state
// travels in the checkpoint; its order views rebuild).
package rms

import (
	"cmp"
	"fmt"
	"slices"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// captureCheckpointLocked serialises the current scheduler state as a
// checkpoint that folds in the given number of events since genesis: an
// image of its own, cut now with the driver's decision state, plus what
// only a checkpoint carries — the event count, the plan in force, that
// decision state's bytes, observer state. The finished history is shared,
// not copied: cs.Done is the image's alias, and s.doneLog is brought up to
// the same length, ready for checkpointRecord to splice. Callers hold the
// scheduling lock.
func (s *Scheduler) captureCheckpointLocked(events int64) (checkpointState, error) {
	img := s.imageLocked(true)
	if img.driverErr != nil {
		return checkpointState{}, fmt.Errorf("driver state: %w", img.driverErr)
	}
	cs := img.checkpointState
	if img.tuner != nil {
		var err error
		if cs.Driver, err = img.tuner.MarshalJSON(); err != nil {
			return checkpointState{}, fmt.Errorf("driver state: %w", err)
		}
	}
	cs.Events = events
	for ; s.doneLogged < len(cs.Done); s.doneLogged++ {
		if s.doneLogged > 0 {
			s.doneLog = append(s.doneLog, ',')
		}
		s.doneLog = appendJobInfo(s.doneLog, &s.done[s.doneLogged])
	}
	if p := s.eng.Schedule(); p != nil {
		p.Complete()
		pr := &planRec{Policy: policyName(p.Policy), Now: p.Now, Capacity: p.Capacity}
		for _, e := range p.Entries {
			pr.Entries = append(pr.Entries, planEntryRec{ID: int64(e.Job.ID), Start: e.Start})
		}
		cs.Plan = pr
	}
	for _, so := range s.stateful {
		b, err := so.SaveState()
		if err != nil {
			return checkpointState{}, fmt.Errorf("observer %q state: %w", so.StateKey(), err)
		}
		cs.Observers = append(cs.Observers, observerState{Key: so.StateKey(), State: b})
	}
	return cs, nil
}

// restoreCheckpoint installs a checkpoint into a virgin scheduler (fresh
// from New, nothing submitted). It checks the jobs the image read from
// disk lists, reinstalls the finished history, refolds it into the report
// aggregates in its original finish order and restores observer state;
// restoreEngine rebuilds the live jobs and the plan in force, from which
// every later image derives their JobInfos. Replayed tail events then
// take it from there. No replanning happens here — the checkpointed plan
// is the one that was in force.
func (s *Scheduler) restoreCheckpoint(cs *checkpointState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	if s.nextID != 0 || len(s.done) != 0 {
		return fmt.Errorf("rms: checkpoint restore on a non-virgin scheduler")
	}
	seen := make(map[job.ID]bool, len(cs.Done)+len(cs.Waiting)+len(cs.Running))
	check := func(infos []JobInfo, what string, states ...JobState) error {
		for _, info := range infos {
			if !slices.Contains(states, info.State) {
				return fmt.Errorf("rms: checkpoint %s job %d in state %s", what, info.ID, info.State)
			}
			if info.ID < 1 || int64(info.ID) > cs.NextID {
				return fmt.Errorf("rms: checkpoint job %d outside the issued ID range", info.ID)
			}
			if seen[info.ID] {
				return fmt.Errorf("rms: checkpoint lists job %d twice", info.ID)
			}
			seen[info.ID] = true
		}
		return nil
	}
	if err := check(cs.Done, "done", StateCompleted, StateKilled, StateFailed); err != nil {
		return err
	}
	if err := check(cs.Waiting, "waiting", StateWaiting); err != nil {
		return err
	}
	if err := check(cs.Running, "running", StateRunning); err != nil {
		return err
	}
	for i, d := range cs.Done {
		s.done = append(s.done, d)
		s.agg.add(d)
		s.doneIdx[d.ID] = i
	}
	if err := restoreEngine(s.eng, s.driver, cs, nil); err != nil {
		return fmt.Errorf("rms: checkpoint restore: %w", err)
	}
	s.nextID = job.ID(cs.NextID)
	for _, os := range cs.Observers {
		for _, so := range s.stateful {
			if so.StateKey() == os.Key {
				if err := so.RestoreState(os.State); err != nil {
					return fmt.Errorf("rms: checkpoint observer %q state: %w", os.Key, err)
				}
				break
			}
		}
	}
	return nil
}

// restoreEngine forks a job image into a virgin engine planning with
// driver: the one step both checkpoint restore and quote twins take. It
// rebuilds the live jobs into one arena — waiting jobs in ascending ID
// order, which is submission order since IDs are issued monotonically —
// installs the plan when the image carries one, restores the driver's
// decision state — the value a quote twin passes as tuner, or on journal
// recovery the checkpoint's bytes — and
// hands the machine state to the engine. The run time is unknown online;
// like Submit, Runtime is the estimate, which the planner never reads and
// at which the engine kills.
func restoreEngine(eng *engine.Engine, driver sim.Driver, cs *checkpointState, tuner *core.TunerState) error {
	arena := make([]job.Job, 0, len(cs.Waiting)+len(cs.Running))
	mk := func(info JobInfo) *job.Job {
		arena = append(arena, job.Job{
			ID: info.ID, Submit: info.Submitted, Width: info.Width,
			Estimate: info.Estimate, Runtime: info.Estimate,
		})
		return &arena[len(arena)-1]
	}
	waiting := make([]*job.Job, len(cs.Waiting))
	for i, info := range cs.Waiting {
		waiting[i] = mk(info)
	}
	slices.SortFunc(waiting, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	running := make([]plan.Running, len(cs.Running))
	for i, info := range cs.Running {
		running[i] = plan.Running{Job: mk(info), Start: info.Started}
	}

	var sched *plan.Schedule
	if cs.Plan != nil {
		var pol policy.Policy
		if cs.Plan.Policy != "" {
			var err error
			if pol, err = policy.Lookup(cs.Plan.Policy); err != nil {
				return fmt.Errorf("plan references a policy this process does not know: %w (register it before restoring)", err)
			}
		}
		byID := make(map[job.ID]*job.Job, len(arena))
		for i := range arena {
			byID[arena[i].ID] = &arena[i]
		}
		sched = &plan.Schedule{Now: cs.Plan.Now, Capacity: cs.Plan.Capacity, Policy: pol}
		for _, e := range cs.Plan.Entries {
			jj := byID[job.ID(e.ID)]
			if jj == nil {
				// The entry's job already left the system (plans are only
				// consulted for still-waiting jobs); a placeholder keeps
				// the entry list faithful without resurrecting it.
				jj = &job.Job{ID: job.ID(e.ID)}
			}
			sched.Entries = append(sched.Entries, plan.Entry{Job: jj, Start: e.Start})
		}
	}

	switch {
	case tuner != nil:
		td, ok := driver.(core.Tuned)
		if !ok {
			return fmt.Errorf("image carries driver state but %s cannot restore it", driver.Name())
		}
		if err := td.SetTunerState(*tuner); err != nil {
			return fmt.Errorf("driver state: %w", err)
		}
	case len(cs.Driver) > 0:
		sd, ok := driver.(engine.StatefulDriver)
		if !ok {
			return fmt.Errorf("image carries driver state but %s cannot restore it", driver.Name())
		}
		if err := sd.RestoreState(cs.Driver); err != nil {
			return fmt.Errorf("driver state: %w", err)
		}
	}
	return eng.RestoreState(engine.State{
		Now:      cs.Now,
		Failed:   cs.Failed,
		Finished: len(cs.Done),
		Waiting:  waiting,
		Running:  running,
		Plan:     sched,
	})
}
