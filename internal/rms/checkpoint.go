// Checkpoint capture and restore for the online scheduler. A checkpoint
// is the full externally observable state — machine, queues, finished
// history, driver state and the transition counts — cut after an
// event applied, such that a virgin scheduler restored from it is
// indistinguishable from one that replayed every event since genesis:
// same Status, same Report (the float aggregates are refolded in the
// original finish order, so even the bit patterns match), same job
// histories, and the same future behaviour (the tuner's decision state
// travels in the checkpoint; its order views rebuild).
package rms

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/sim"
)

// captureCheckpointLocked serialises the current scheduler state as a
// checkpoint that folds in the given number of events since genesis: an
// image of its own, cut now with the driver's decision state, plus what
// only a checkpoint carries — the event count, that decision state's
// bytes, the transition counts by name. The finished history is shared,
// not copied: cs.Done is the image's alias, and s.doneLog is brought up
// to the same length, ready for checkpointRecord to splice. Callers hold
// the scheduling lock.
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
	cs.Transitions = transitionsByName(&img.counts)
	return cs, nil
}

// transitionsByName is an engine's counts as checkpoints and the metrics
// op name them: by kind name, the kinds that occurred; nil when none did.
func transitionsByName(c *engine.Counts) map[string]int64 {
	var m map[string]int64
	for k, n := range c {
		if n != 0 {
			if m == nil {
				m = make(map[string]int64)
			}
			m[engine.EventKind(k).String()] = n
		}
	}
	return m
}

// countsOf is transitionsByName's inverse; it refuses a kind name the
// engine does not know.
func countsOf(m map[string]int64) (engine.Counts, error) {
	var c engine.Counts
	for name, n := range m {
		k := 0
		for k < len(c) && engine.EventKind(k).String() != name {
			k++
		}
		if k == len(c) {
			return c, fmt.Errorf("unknown transition kind %q", name)
		}
		c[k] = n
	}
	return c, nil
}

// restoreCheckpoint installs a checkpoint into a virgin scheduler (fresh
// from New, nothing submitted). It checks the jobs the image read from
// disk lists, reinstalls the finished history and refolds it into the
// report aggregates in its original finish order; restoreEngine rebuilds
// the live jobs, the transition counts and the plan in force, from the
// waiting jobs' planned starts, and restores the driver's decision state,
// decoded from the checkpoint's JSON into the value a quote twin
// restores. Replayed tail events then take it from there. No replanning
// happens here: until the next one, the only reader of the rebuilt plan
// is the next image, which reads back the same planned starts.
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
	var tuner *core.TunerState
	if len(cs.Driver) > 0 {
		tuner = new(core.TunerState)
		if err := json.Unmarshal(cs.Driver, tuner); err != nil {
			return fmt.Errorf("rms: checkpoint restore: driver state: %w", err)
		}
	}
	if err := restoreEngine(s.eng, s.driver, cs, tuner, true); err != nil {
		return fmt.Errorf("rms: checkpoint restore: %w", err)
	}
	s.nextID = job.ID(cs.NextID)
	return nil
}

// restoreEngine forks a job image into a virgin engine planning with
// driver: the one step both checkpoint restore and quote twins take. It
// rebuilds the live jobs into one arena — waiting jobs in ascending ID
// order, which is submission order since IDs are issued monotonically —
// rebuilds the plan in force from the waiting jobs' planned starts when
// planned is set (a quote twin replans before anything reads a plan),
// restores the driver's decision state when tuner is set — the value a
// quote twin's image captured, or on journal recovery the one decoded
// from the checkpoint — and hands the machine state and the transition
// counts (none in a quote twin's image) to the engine. The run time is
// unknown online; like Submit, Runtime is the estimate, which the
// planner never reads and at which the engine kills.
func restoreEngine(eng *engine.Engine, driver sim.Driver, cs *checkpointState, tuner *core.TunerState, planned bool) error {
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
	counts, err := countsOf(cs.Transitions)
	if err != nil {
		return err
	}

	var sched *plan.Schedule
	if planned {
		sched = &plan.Schedule{Now: cs.Now, Capacity: eng.Capacity() - cs.Failed}
		for i, info := range cs.Waiting {
			if info.PlannedStart != NeverStart {
				sched.Entries = append(sched.Entries, plan.Entry{Job: &arena[i], Start: info.PlannedStart})
			}
		}
	}

	if tuner != nil {
		td, ok := driver.(core.Tuned)
		if !ok {
			return fmt.Errorf("image carries driver state but %s cannot restore it", driver.Name())
		}
		if err := td.SetTunerState(*tuner); err != nil {
			return fmt.Errorf("driver state: %w", err)
		}
	}
	return eng.RestoreState(engine.State{
		Now:     cs.Now,
		Failed:  cs.Failed,
		Counts:  counts,
		Waiting: waiting,
		Running: running,
		Plan:    sched,
	})
}
