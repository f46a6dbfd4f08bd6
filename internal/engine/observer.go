package engine

import (
	"time"

	"dynp/internal/job"
	"dynp/internal/policy"
)

// EventKind classifies one engine transition.
type EventKind int

// The engine transitions, in the order of a job's life. EventPlan fires
// once per scheduling event, after due jobs launched, so its queue
// depth is the post-launch backlog — the quantity the paper's queue
// dynamics figures plot.
const (
	EventSubmit       EventKind = iota // a job entered the waiting queue
	EventStart                         // a waiting job launched
	EventFinish                        // a running job completed
	EventKill                          // a running job's estimate expired; the RMS terminated it
	EventJobFail                       // processors failed under a running job; killed, the last started first
	EventCancel                        // a waiting job was withdrawn
	EventProcsFail                     // processors left service
	EventProcsRestore                  // processors returned to service
	EventPlan                          // one full replanning step ran
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"submit", "start", "finish", "kill", "job-fail",
	"cancel", "procs-fail", "procs-restore", "plan",
}

// String returns the wire name of the event kind.
func (k EventKind) String() string {
	if k < 0 || k >= numEventKinds {
		return "unknown"
	}
	return eventKindNames[k]
}

// Event is one observed engine transition. Every event carries the full
// scheduling context (time, queue depth, machine load, active policy);
// job-scoped kinds carry the job, and EventPlan carries the planning
// latency plus — for the self-tuning dynP scheduler over the paper's
// candidate set — the Table-1 decision case of the step.
type Event struct {
	Kind    EventKind
	Seq     int64 // the transition's number over the engine's life: Counts().Total() after it
	Time    int64
	Job     *job.Job // job-scoped kinds only
	Procs   int      // job width, or processors failed/restored
	Queued  int      // waiting jobs after the transition
	Running int      // running jobs after the transition
	Used    int      // processors in use after the transition
	Policy  policy.Policy
	Case    string        // EventPlan: Table-1 decision case ("" when not a dynP step)
	Latency time.Duration // EventPlan: wall-clock cost of the driver's Plan call
}

// Observer receives every engine transition, synchronously, in order.
// Observe must not call back into the engine. An observer only watches:
// what it sees is not engine state, and no checkpoint carries it.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// DecisionCaser is implemented by drivers that can classify their most
// recent self-tuning step as a Table-1 decision case (see core.CaseOf);
// the engine stamps the label on every EventPlan it emits.
type DecisionCaser interface {
	LastDecisionCase() string
}

// decisionCase asks the driver for the Table-1 case of the step that
// just ran; non-dynP drivers return "".
func (e *Engine) decisionCase() string {
	if dc, ok := e.driver.(DecisionCaser); ok {
		return dc.LastDecisionCase()
	}
	return ""
}

// Counts is how many transitions of each kind an engine has made over
// its life, indexed by EventKind. It is engine state: State carries it
// through a checkpoint.
type Counts [numEventKinds]int64

// Total is the number of transitions of every kind.
func (c *Counts) Total() int64 {
	var n int64
	for _, k := range c {
		n += k
	}
	return n
}

// Counts returns the transitions the engine has made, by kind.
func (e *Engine) Counts() Counts { return e.counts }

// emit counts the event, completes the shared context fields and
// delivers it to every observer. Without observers it only counts,
// keeping the hot path of unobserved runs allocation-free.
func (e *Engine) emit(ev Event) {
	e.counts[ev.Kind]++
	if len(e.obs) == 0 {
		return
	}
	ev.Seq = e.counts.Total()
	ev.Time = e.now
	ev.Queued = len(e.waiting)
	ev.Running = len(e.running)
	ev.Used = e.used
	ev.Policy = e.driver.ActivePolicy()
	for _, o := range e.obs {
		o.Observe(ev)
	}
}

// finishEventKind maps a finish state to its event kind.
func finishEventKind(st FinishState) EventKind {
	switch st {
	case FinishKilled:
		return EventKill
	case FinishFailed:
		return EventJobFail
	default:
		return EventFinish
	}
}
