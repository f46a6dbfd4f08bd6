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
// to the same length, ready for appendCheckpointRecord to splice. Callers
// hold the scheduling lock.
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
// report aggregates in its original finish order; a fork rebuilds
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
		if err := tuner.UnmarshalJSON(cs.Driver); err != nil {
			return fmt.Errorf("rms: checkpoint restore: driver state: %w", err)
		}
	}
	var f fork
	st, err := f.state(s.eng, s.driver, cs, tuner, true)
	if err == nil {
		err = s.eng.RestoreState(st)
	}
	if err != nil {
		return fmt.Errorf("rms: checkpoint restore: %w", err)
	}
	s.nextID = job.ID(cs.NextID)
	return nil
}

// A fork is what restoring a job image into an engine takes besides the
// engine: one *job.Job per live job, and the queues the engine's state is
// handed in. Journal recovery uses a fork once. A quote twin keeps its
// own from quote to quote: a job the last image held and the next one
// still holds keeps its pointer, which is what the driver's lane matches
// jobs by (core.Lane), so the twin's plans follow what changed instead
// of starting over. A made job is never changed, so a pointer a lane
// remembers always stands for the job it was made for; any other job is
// made anew — a hypothetical, and a real submission that takes the ID a
// quote gave one, whatever its shape.
type fork struct {
	waiting []*job.Job     // the last state's waiting jobs, in ID order
	running []plan.Running // the last state's running jobs, in start order
	// Room for the next state's queues: the ones before the last.
	spareWaiting []*job.Job
	spareRunning []plan.Running
	arena        []job.Job // room for jobs not made yet
}

// newJob returns a new job j.
func (f *fork) newJob(j job.Job) *job.Job {
	if len(f.arena) == 0 {
		f.arena = make([]job.Job, 32)
	}
	made := &f.arena[0]
	f.arena, *made = f.arena[1:], j
	return made
}

// jobOf is the job of an image's JobInfo. The run time is unknown online;
// like Submit, Runtime is the estimate, which the planner never reads and
// at which the engine kills.
func jobOf(info JobInfo) job.Job {
	return job.Job{ID: info.ID, Submit: info.Submitted, Width: info.Width,
		Estimate: info.Estimate, Runtime: info.Estimate}
}

// byID orders jobs by ID.
func byID(a *job.Job, id job.ID) int { return cmp.Compare(a.ID, id) }

// state forks a job image into a state for eng, which plans with driver:
// the one step both checkpoint restore and quote twins take. It lists the
// live jobs — waiting jobs in ascending ID order, which is submission
// order since IDs are issued monotonically — taking each from the last
// state's lists where it was already, rebuilds the plan in force from the
// waiting jobs' planned starts when planned is set (a quote twin replans
// before anything reads a plan), and restores the driver's decision
// state when tuner is set — the value a quote twin's image captured, or
// on journal recovery the one decoded from the checkpoint. The state's
// transition counts are the image's (none in a quote twin's), and its
// queues are the fork's until the state after next.
func (f *fork) state(eng *engine.Engine, driver sim.Driver, cs *checkpointState, tuner *core.TunerState, planned bool) (engine.State, error) {
	was, ran := f.waiting, f.running
	waiting, running := f.spareWaiting[:0], f.spareRunning[:0]
	k := 0 // was[:k] holds lower IDs than the job at hand
	for _, info := range cs.Waiting {
		j := jobOf(info)
		for k < len(was) && was[k].ID < j.ID {
			k++
		}
		if k < len(was) && *was[k] == j {
			waiting = append(waiting, was[k])
		} else {
			waiting = append(waiting, f.newJob(j))
		}
	}
	slices.SortFunc(waiting, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	k = 0 // ran[:k] started before the job at hand, or left
	for _, info := range cs.Running {
		j, at := jobOf(info), -1
		if m := slices.IndexFunc(ran[k:], func(r plan.Running) bool { return r.Job.ID == j.ID }); m >= 0 {
			at, k = k+m, k+m+1
		}
		switch w, ok := slices.BinarySearchFunc(was, j.ID, byID); {
		case at >= 0 && *ran[at].Job == j:
			running = append(running, plan.Running{Job: ran[at].Job, Start: info.Started})
		case ok && *was[w] == j: // started since
			running = append(running, plan.Running{Job: was[w], Start: info.Started})
		default:
			running = append(running, plan.Running{Job: f.newJob(j), Start: info.Started})
		}
	}
	f.waiting, f.running, f.spareWaiting, f.spareRunning = waiting, running, was, ran
	counts, err := countsOf(cs.Transitions)
	if err != nil {
		return engine.State{}, err
	}

	var sched *plan.Schedule
	if planned {
		sched = &plan.Schedule{Now: cs.Now, Capacity: eng.Capacity() - cs.Failed}
		for _, info := range cs.Waiting {
			if w, _ := slices.BinarySearchFunc(waiting, info.ID, byID); info.PlannedStart != NeverStart {
				sched.Entries = append(sched.Entries, plan.Entry{Job: waiting[w], Start: info.PlannedStart})
			}
		}
	}

	if tuner != nil {
		td, ok := driver.(core.Tuned)
		if !ok {
			return engine.State{}, fmt.Errorf("image carries driver state but %s cannot restore it", driver.Name())
		}
		if err := td.SetTunerState(*tuner); err != nil {
			return engine.State{}, fmt.Errorf("driver state: %w", err)
		}
	}
	return engine.State{Now: cs.Now, Failed: cs.Failed, Counts: counts,
		Waiting: waiting, Running: running, Plan: sched}, nil
}
