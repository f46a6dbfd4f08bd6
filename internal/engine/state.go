// Checkpoint-restore support. The online RMS journal periodically
// captures the engine's restartable state into a checkpoint record and,
// on restart, rebuilds a virgin engine from the newest valid checkpoint
// instead of replaying the whole event history. The engine itself only
// provides the rebuild primitive: RestoreState installs a previously
// captured machine state wholesale, silently — no hooks fire and no
// observer events are emitted, because the transitions it encodes
// already happened in a previous life of the process. A driver's own
// decision state (the self-tuner's) is not the engine's: the caller
// restores it into the driver (see core.TunerState).
package engine

import (
	"fmt"

	"dynp/internal/job"
	"dynp/internal/plan"
)

// State is the engine's restartable state as captured at a checkpoint.
// Slices are installed as-is; the caller hands over ownership.
type State struct {
	Now     int64
	Failed  int            // processors out of service
	Counts  Counts         // transitions made, ever, by kind
	Waiting []*job.Job     // waiting queue in submission order
	Running []plan.Running // running set in start order
	Plan    *plan.Schedule // last schedule, nil if none was in force
}

// RestoreState installs st into a virgin engine (fresh from New: no
// submissions, no time movement; it may have planned). Nothing observes
// the restore, and st's counts replace the engine's own.
func (e *Engine) RestoreState(st State) error {
	if len(e.waiting) != 0 || len(e.running) != 0 || e.counts[EventSubmit] != 0 {
		return fmt.Errorf("engine: RestoreState on a non-virgin engine")
	}
	if st.Failed < 0 || st.Failed > e.capacity {
		return fmt.Errorf("engine: restored state fails %d of %d processors", st.Failed, e.capacity)
	}
	if st.Now < e.now {
		return fmt.Errorf("engine: restored clock %d behind construction time %d", st.Now, e.now)
	}
	e.now = st.Now
	e.failed = st.Failed
	e.counts = st.Counts
	for _, j := range st.Waiting {
		if _, dup := e.waitingIdx[j.ID]; dup {
			return fmt.Errorf("engine: restored job %d waiting twice", j.ID)
		}
		e.waitingIdx[j.ID] = len(e.waiting)
		e.waiting = append(e.waiting, j)
	}
	for _, r := range st.Running {
		if _, dup := e.runningIdx[r.Job.ID]; dup || e.IsWaiting(r.Job.ID) {
			return fmt.Errorf("engine: restored job %d placed twice", r.Job.ID)
		}
		e.runningIdx[r.Job.ID] = len(e.running)
		e.running = append(e.running, r)
		e.used += r.Job.Width
	}
	e.plan = st.Plan
	if err := e.CheckInvariants(); err != nil {
		return fmt.Errorf("engine: restored state invalid: %w", err)
	}
	return nil
}
