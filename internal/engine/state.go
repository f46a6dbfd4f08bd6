// Checkpoint-restore support. The online RMS journal periodically
// captures the engine's restartable state into a checkpoint record and,
// on restart, rebuilds a virgin engine from the newest valid checkpoint
// instead of replaying the whole event history. The engine itself only
// provides the rebuild primitive: RestoreState installs a previously
// captured machine state wholesale into a new engine, and Reset into any
// engine, silently — no hooks fire and no
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
type State struct {
	Now     int64
	Failed  int            // processors out of service
	Counts  Counts         // transitions made, ever, by kind
	Waiting []*job.Job     // waiting queue in submission order
	Running []plan.Running // running set in start order
	Plan    *plan.Schedule // last schedule, nil if none was in force
}

// RestoreState installs st into a virgin engine (fresh from New: no
// submissions, no time movement; it may have planned), as Reset does; the
// clock may not move back from where New set it.
func (e *Engine) RestoreState(st State) error {
	if len(e.waiting) != 0 || len(e.running) != 0 || e.counts[EventSubmit] != 0 {
		return fmt.Errorf("engine: RestoreState on a non-virgin engine")
	}
	if st.Now < e.now {
		return fmt.Errorf("engine: restored clock %d behind construction time %d", st.Now, e.now)
	}
	return e.Reset(st)
}

// Reset installs st in place of whatever the engine held, the clock
// included, which may move either way. Nothing observes it, and st's
// counts replace the engine's own. The engine copies st's queues into the
// storage it already has, so a quote twin that resets one engine per
// quote allocates nothing for it once grown. The driver is the engine's
// still: what it remembers of earlier plans must not depend on the
// engine's history (a core.Lane works out what changed from the queue it
// is handed).
//
// Reset does not look for a job listed twice: every state it is handed
// was made by an engine (a quote twin's fork, a simulation's split, a
// checkpoint restore), and a checkpoint read from disk is refused for a
// duplicate before it gets here (rms.restoreCheckpoint).
func (e *Engine) Reset(st State) error {
	if st.Failed < 0 || st.Failed > e.capacity {
		return fmt.Errorf("engine: restored state fails %d of %d processors", st.Failed, e.capacity)
	}
	e.now, e.failed, e.counts, e.plan, e.used = st.Now, st.Failed, st.Counts, st.Plan, 0
	e.waiting, e.running = append(e.waiting[:0], st.Waiting...), append(e.running[:0], st.Running...)
	for _, r := range e.running {
		e.used += r.Job.Width
	}
	for i := 1; i < len(e.waiting); i++ {
		if e.waiting[i].Submit < e.waiting[i-1].Submit {
			return fmt.Errorf("engine: restored job %d (submitted t=%d) queued behind a later submission", e.waiting[i].ID, e.waiting[i].Submit)
		}
	}
	if e.used > e.Effective() {
		return fmt.Errorf("engine: restored state runs %d processors on %d", e.used, e.Effective())
	}
	if e.plan != nil && e.plan.Released() {
		return fmt.Errorf("engine: restored plan was superseded")
	}
	return nil
}
