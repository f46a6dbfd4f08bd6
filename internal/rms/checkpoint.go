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
	"fmt"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// captureCheckpointLocked serialises the current scheduler state as a
// checkpoint that folds in the given number of events since genesis.
// Callers hold the scheduling lock.
func (s *Scheduler) captureCheckpointLocked(events int64) (checkpointState, error) {
	cs := checkpointState{
		Events: events,
		Now:    s.eng.Now(),
		NextID: int64(s.nextID),
		Failed: s.eng.FailedProcs(),
	}
	for _, w := range s.eng.Waiting() {
		cs.Waiting = append(cs.Waiting, *s.infos[w.ID])
	}
	for _, r := range s.eng.Running() {
		cs.Running = append(cs.Running, *s.infos[r.Job.ID])
	}
	if len(s.done) > 0 {
		cs.Done = append([]JobInfo(nil), s.done...)
	}
	if p := s.eng.Schedule(); p != nil {
		pr := &planRec{Policy: policyName(p.Policy), Now: p.Now, Capacity: p.Capacity}
		for _, e := range p.Entries {
			pr.Entries = append(pr.Entries, planEntryRec{ID: int64(e.Job.ID), Start: e.Start})
		}
		cs.Plan = pr
	}
	if sd, ok := s.driver.(engine.StatefulDriver); ok {
		b, err := sd.SaveState()
		if err != nil {
			return checkpointState{}, fmt.Errorf("driver state: %w", err)
		}
		cs.Driver = b
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
// from New, nothing submitted). The finished history is refolded into
// the report aggregates in its original finish order, the engine's
// machine state is rebuilt (priming the driver's queue tracker), and
// driver and observer state reinstalled; replayed tail events then take
// it from there. No replanning happens here — the checkpointed plan is
// the one that was in force.
func (s *Scheduler) restoreCheckpoint(cs *checkpointState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	if s.nextID != 0 || len(s.done) != 0 {
		return fmt.Errorf("rms: checkpoint restore on a non-virgin scheduler")
	}

	install := func(info JobInfo) (*JobInfo, error) {
		if info.ID < 1 || int64(info.ID) > cs.NextID {
			return nil, fmt.Errorf("rms: checkpoint job %d outside the issued ID range", info.ID)
		}
		if _, dup := s.infos[info.ID]; dup {
			return nil, fmt.Errorf("rms: checkpoint lists job %d twice", info.ID)
		}
		cp := info
		s.infos[info.ID] = &cp
		return &cp, nil
	}

	for i, d := range cs.Done {
		if d.State != StateCompleted && d.State != StateKilled && d.State != StateFailed {
			return fmt.Errorf("rms: checkpoint done job %d in state %s", d.ID, d.State)
		}
		if _, err := install(d); err != nil {
			return err
		}
		s.done = append(s.done, d)
		s.agg.add(d)
		s.doneIdx[d.ID] = i
	}

	// The engine job objects behind the live infos. The run time is
	// unknown online; like Submit, the planner never reads it.
	mkJob := func(info JobInfo) *job.Job {
		return &job.Job{
			ID: info.ID, Submit: info.Submitted, Width: info.Width,
			Estimate: info.Estimate, Runtime: info.Estimate,
		}
	}
	byID := make(map[job.ID]*job.Job, len(cs.Waiting)+len(cs.Running))
	var waiting []*job.Job
	for _, info := range cs.Waiting {
		if info.State != StateWaiting {
			return fmt.Errorf("rms: checkpoint waiting job %d in state %s", info.ID, info.State)
		}
		if _, err := install(info); err != nil {
			return err
		}
		j := mkJob(info)
		waiting = append(waiting, j)
		byID[j.ID] = j
	}
	var running []plan.Running
	for _, info := range cs.Running {
		if info.State != StateRunning {
			return fmt.Errorf("rms: checkpoint running job %d in state %s", info.ID, info.State)
		}
		if _, err := install(info); err != nil {
			return err
		}
		j := mkJob(info)
		running = append(running, plan.Running{Job: j, Start: info.Started})
		byID[j.ID] = j
	}

	var sched *plan.Schedule
	if cs.Plan != nil {
		var pol policy.Policy
		if cs.Plan.Policy != "" {
			var err error
			if pol, err = policy.Lookup(cs.Plan.Policy); err != nil {
				return fmt.Errorf("rms: checkpoint plan references a policy this process does not know: %w (register it before restoring)", err)
			}
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

	if err := s.eng.RestoreState(engine.State{
		Now:      cs.Now,
		Failed:   cs.Failed,
		Finished: len(cs.Done),
		Waiting:  waiting,
		Running:  running,
		Plan:     sched,
	}); err != nil {
		return fmt.Errorf("rms: checkpoint restore: %w", err)
	}
	s.nextID = job.ID(cs.NextID)

	if len(cs.Driver) > 0 {
		sd, ok := s.driver.(engine.StatefulDriver)
		if !ok {
			return fmt.Errorf("rms: checkpoint carries driver state but %s cannot restore it", s.driver.Name())
		}
		if err := sd.RestoreState(cs.Driver); err != nil {
			return fmt.Errorf("rms: checkpoint driver state: %w", err)
		}
	}
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
