// Package engine is the event-driven scheduling core shared by the
// offline discrete event simulator (internal/sim) and the online
// resource management system (internal/rms). The paper's scheduler is
// one mechanism — at every scheduling event the driver recomputes the
// full schedule and every job planned to start right now is launched —
// and this package is its single implementation: machine state
// (capacity, failed processors), running/waiting bookkeeping, the
// apply-events→replan→launch cycle, finish/cancel/kill transitions and
// invariant checks. The waiting queue and the running set are two
// slices, in submission and in start order, and they are the only
// record of where a job is: a lookup scans the slice that holds it and a
// removal splices it out, which walks the entries behind it anyway
// (DESIGN §9).
//
// The engine is parameterised by its front end in two places:
//
//   - the Clock. The engine owns the current time but never advances it
//     on its own. The simulator jumps it to each event instant (JumpTo)
//     and injects completions itself, because actual run times are known
//     in advance; the online RMS sweeps it forward (AdvanceTo), letting
//     the engine fire its one automatic action, an estimate running out,
//     at each instant on the way: the kill is a scheduling event, and
//     starts happen only there.
//   - the Driver, the planning interface of internal/sim: a static
//     policy, the self-tuning dynP scheduler, or EASY backfilling.
//
// Hooks let the front end act on the engine's transitions as they
// happen (the simulator queues each launch's completion event, the RMS
// records each finished job in its history). The engine counts every
// transition by kind (Counts), observed or not, and Observers receive a
// structured event stream (see observer.go) for tracing; they only
// watch, and nothing that decides or is restored reads what they see.
// The engine is not safe for concurrent use; the RMS serialises access
// with its own mutex.
package engine

import (
	"fmt"
	"slices"
	"time"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// Driver plans the waiting queue at every scheduling event. It is
// the planning interface of the paper's scheduler; internal/sim aliases
// it and provides the implementations (Static, DynP, EASY).
type Driver interface {
	// Name identifies the scheduler in result tables.
	Name() string
	// Plan schedules the waiting jobs. Its Entries must hold every job
	// planned to start at now; they may stop short of the full plan (a
	// static driver's frontier build, plan.Base.FrontierInto), provided
	// every job left out starts after now. Launching reads the entries
	// as they are, which is exact under that rule. A reader of the whole
	// plan — Verify, the Planned* scores, the RMS's planned starts and
	// checkpoints — calls the schedule's Complete
	// first. The result is the caller's to read, and to complete, until
	// this driver's next Plan call returns, at which point the driver may
	// recycle the old one's storage and Complete panics. Copy out what
	// must outlive that. One driver therefore serves one engine at a
	// time.
	//
	// waiting is the queue as it stands, in submission order, minus the
	// jobs too wide for the effective capacity. It is the engine's to
	// edit in place after Plan returns, and the engine says nothing of
	// changes in between: a driver that keeps state across calls (a
	// core.Lane's order views) copies what it needs and works out what
	// changed from the next queue it is handed.
	Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule
	// ActivePolicy returns the policy the last plan was built with.
	ActivePolicy() policy.Policy
}

// QueueTracker is the method set of a driver told of every waiting-queue
// change. The engine tells no driver: a driver orders the queue each Plan
// is handed (policy.Views.Sync).
//
// Deprecated: the engine never calls it. It stays while
// benchmark/trace.go names it (ROADMAP.md, item 1(a)).
type QueueTracker interface {
	NoteSubmit(j *job.Job)
	NoteRemove(j *job.Job)
}

// FinishState says why a job left the machine.
type FinishState int

// The ways a running job ends.
const (
	FinishCompleted FinishState = iota // the outside world reported completion
	FinishKilled                       // its estimate expired; the RMS terminated it
	FinishFailed                       // processors failed under it; killed, the last started first
)

// Hooks are the front end's per-job bookkeeping callbacks, invoked
// synchronously inside the corresponding transition. All are optional.
type Hooks struct {
	// Started fires when a job launches (it has left the waiting queue
	// and occupies its processors).
	Started func(j *job.Job, now int64)
	// Finished fires when a running job leaves the machine; r is the
	// job with the instant it started.
	Finished func(r plan.Running, st FinishState, now int64)
}

// Engine is the shared scheduling core. Construct with New.
type Engine struct {
	capacity int // installed processors
	failed   int // processors currently failed
	driver   Driver
	now      int64
	hooks    Hooks
	obs      []Observer

	waiting []*job.Job     // submission order
	running []plan.Running // start order
	used    int            // processors in use
	plan    *plan.Schedule
	counts  Counts // transitions made, ever, by kind

	strict bool // launch capacity violations are errors, not skips
	verify bool // verify every schedule against the machine state
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithHooks installs the front end's bookkeeping callbacks.
func WithHooks(h Hooks) Option { return func(e *Engine) { e.hooks = h } }

// WithStrictLaunch makes a due job that exceeds the effective capacity a
// hard error instead of a skip. The simulator uses it. The online RMS
// keeps the default graceful skip; since a plan launches only inside the
// Replan that built it, against the capacity it was built for, the skip
// only ever meets a rogue driver, whose job stays waiting for the next
// scheduling event.
func WithStrictLaunch() Option { return func(e *Engine) { e.strict = true } }

// WithVerify makes the engine verify every schedule against the current
// machine state (slow; used by tests and debugging).
func WithVerify() Option { return func(e *Engine) { e.verify = true } }

// WithObserver registers an observer for the engine's event stream.
func WithObserver(o Observer) Option { return func(e *Engine) { e.AddObserver(o) } }

// New returns an engine for a machine with the given capacity, planning
// with the given driver, with the clock at start.
func New(capacity int, driver Driver, start int64, opts ...Option) *Engine {
	e := &Engine{capacity: capacity, driver: driver, now: start}
	for _, o := range opts {
		o(e)
	}
	return e
}

// AddObserver registers an observer after construction.
func (e *Engine) AddObserver(o Observer) {
	if o != nil {
		e.obs = append(e.obs, o)
	}
}

// Now returns the engine's current time.
func (e *Engine) Now() int64 { return e.now }

// Capacity returns the installed processor count.
func (e *Engine) Capacity() int { return e.capacity }

// FailedProcs returns the processors currently out of service.
func (e *Engine) FailedProcs() int { return e.failed }

// Effective returns the processors currently usable for planning.
func (e *Engine) Effective() int { return e.capacity - e.failed }

// Used returns the processors currently occupied by running jobs.
func (e *Engine) Used() int { return e.used }

// Driver returns the planning driver.
func (e *Engine) Driver() Driver { return e.driver }

// Waiting returns the waiting queue in submission order. The slice is
// the engine's own; callers must not mutate it.
func (e *Engine) Waiting() []*job.Job { return e.waiting }

// Running returns the running set in start order. The slice is the
// engine's own; callers must not mutate it.
func (e *Engine) Running() []plan.Running { return e.running }

// Schedule returns the most recent plan (nil before the first replan or
// while the machine is fully drained). It is only valid until the next
// Replan (see Driver.Plan): read it, do not keep it. Its entries may stop
// at the launch frontier; call its Complete to read the whole plan.
func (e *Engine) Schedule() *plan.Schedule { return e.plan }

// IsWaiting reports whether the job is in the waiting queue.
func (e *Engine) IsWaiting(id job.ID) bool { return e.waitingAt(id) >= 0 }

// IsRunning reports whether the job is on the machine.
func (e *Engine) IsRunning(id job.ID) bool { return e.runningAt(id) >= 0 }

// waitingAt returns the job's position in the waiting queue, -1 if it is
// not waiting. The queue is its own index: a removal splices the slice,
// which walks the entries behind the job anyway (DESIGN §9).
func (e *Engine) waitingAt(id job.ID) int {
	return slices.IndexFunc(e.waiting, func(j *job.Job) bool { return j.ID == id })
}

// runningAt returns the job's position in the running set, -1 if it is
// not running.
func (e *Engine) runningAt(id job.ID) int {
	return slices.IndexFunc(e.running, func(r plan.Running) bool { return r.Job.ID == id })
}

// JumpTo moves the clock without firing any estimate expiry — the
// virtual-clock mode of the simulator, which knows every completion in
// advance and injects the transitions itself. It panics when asked to
// move time backwards, which can only be a front-end bug.
func (e *Engine) JumpTo(t int64) {
	if t < e.now {
		panic(fmt.Sprintf("engine: clock moved backwards from %d to %d", e.now, t))
	}
	e.now = t
}

// Submit appends a job to the waiting queue. It does not replan; fronts
// batch same-instant submissions and replan once.
func (e *Engine) Submit(j *job.Job) {
	e.waiting = append(e.waiting, j)
	e.emit(Event{Kind: EventSubmit, Job: j, Procs: j.Width})
}

// CancelWaiting removes a waiting job from the queue. It reports false
// when the job is not waiting.
func (e *Engine) CancelWaiting(id job.ID) bool {
	j, ok := e.removeWaiting(id)
	if !ok {
		return false
	}
	e.emit(Event{Kind: EventCancel, Job: j, Procs: j.Width})
	return true
}

// Finish moves a running job off the machine, freeing its processors.
// It reports false when the job is not running.
func (e *Engine) Finish(id job.ID, st FinishState) bool {
	i := e.runningAt(id)
	if i < 0 {
		return false
	}
	e.finishAt(i, st)
	return true
}

// finishAt moves the running job at position i off the machine,
// preserving the start order of the rest.
func (e *Engine) finishAt(i int, st FinishState) {
	r := e.running[i]
	e.running = slices.Delete(e.running, i, i+1)
	e.used -= r.Job.Width
	if e.hooks.Finished != nil {
		e.hooks.Finished(r, st, e.now)
	}
	e.emit(Event{Kind: finishEventKind(st), Job: r.Job, Procs: r.Job.Width})
}

// FailProcs takes n processors out of service and terminates running
// jobs until the rest fit, the last started first. The caller validates
// n against the installed capacity. It does not replan.
func (e *Engine) FailProcs(n int) {
	e.failed += n
	e.emit(Event{Kind: EventProcsFail, Procs: n})
	e.killVictims()
}

// RestoreProcs returns n previously failed processors to service. The
// caller validates n against the failed count. It does not replan.
func (e *Engine) RestoreProcs(n int) {
	e.failed -= n
	e.emit(Event{Kind: EventProcsRestore, Procs: n})
}

// killVictims terminates running jobs, the last started first
// (victimLastStarted), until the rest fit the effective capacity. The
// victims go in their own order, not the running set's, so it walks a
// sorted copy; only a processor failure gets here.
func (e *Engine) killVictims() {
	eff := e.Effective()
	if e.used <= eff {
		return
	}
	for _, r := range victimLastStarted(slices.Clone(e.running)) {
		if e.used <= eff {
			break
		}
		e.Finish(r.Job.ID, FinishFailed)
	}
}

// KillExpired terminates running jobs whose estimates expired at the
// current time — the guarantee that makes planning sound — and reports
// whether any were found, finishing them in start order as it walks the
// running set in place. It does not replan.
func (e *Engine) KillExpired() bool {
	killed := false
	for i := 0; i < len(e.running); {
		if e.running[i].EstimatedEnd() > e.now {
			i++
			continue
		}
		e.finishAt(i, FinishKilled)
		killed = true
	}
	return killed
}

// Replan is one scheduling event: recompute the full schedule against
// the effective capacity and launch every job planned to start right
// now. Jobs wider than the effective capacity are unplaceable: they are
// withheld from the planner, so the plan has no entry for them, until
// capacity returns. The returned error is always nil unless strict
// launching or verification is enabled.
func (e *Engine) Replan() error {
	eff := e.Effective()
	if eff < 1 {
		// Fully drained machine: nothing can be planned or started.
		e.plan = nil
		e.emit(Event{Kind: EventPlan})
		return nil
	}
	planned := e.waiting
	tooWide := func(j *job.Job) bool { return j.Width > eff }
	if slices.ContainsFunc(planned, tooWide) {
		planned = slices.DeleteFunc(slices.Clone(planned), tooWide)
	}
	// The plan event's latency and decision case exist only for
	// observers; an unobserved engine reads no clock and asks no driver,
	// and only counts the event.
	observed := len(e.obs) > 0
	var start time.Time
	if observed {
		start = time.Now()
	}
	e.plan = e.driver.Plan(e.now, eff, e.running, planned)
	var latency time.Duration
	if observed {
		latency = time.Since(start)
	}
	if e.verify {
		if err := e.plan.Verify(e.running); err != nil {
			return fmt.Errorf("engine: at t=%d: %w", e.now, err)
		}
	}
	if err := e.launchDue(); err != nil {
		return err
	}
	ev := Event{Kind: EventPlan, Latency: latency}
	if observed {
		ev.Case = e.decisionCase()
	}
	e.emit(ev)
	return nil
}

// launchDue starts every waiting job whose planned start is now, reading
// only the entries the driver placed: under Driver.Plan's rule every job
// it left unplaced starts after now. Only Replan calls it, right after
// the plan is built. An entry that does not fit — a rogue driver
// oversubscribed — is skipped (the job stays waiting for the next
// scheduling event) unless strict launching makes it an error.
func (e *Engine) launchDue() error {
	if e.plan == nil {
		return nil
	}
	for _, entry := range e.plan.Entries {
		if entry.Start != e.now {
			continue
		}
		j := entry.Job
		i := e.waitingAt(j.ID)
		if i < 0 {
			// A rogue driver may plan a job twice or one not waiting.
			continue
		}
		if e.used+j.Width > e.Effective() {
			if e.strict {
				return fmt.Errorf("engine: at t=%d: starting %s exceeds capacity (%d used of %d)",
					e.now, j, e.used, e.Effective())
			}
			continue
		}
		e.waiting = slices.Delete(e.waiting, i, i+1)
		e.running = append(e.running, plan.Running{Job: j, Start: e.now})
		e.used += j.Width
		if e.hooks.Started != nil {
			e.hooks.Started(j, e.now)
		}
		e.emit(Event{Kind: EventStart, Job: j, Procs: j.Width})
	}
	return nil
}

// AdvanceTo processes the machine's one automatic action, an estimate
// running out, up to time to — strictly before it when exclusive is set,
// so a front end can batch its own events at to before the shared
// replanning step. Each such instant is one step: the expired jobs are
// killed, and the kill is a scheduling event (Replan). A driver that
// places every job at its earliest hole plans no start before the next
// expiry (DESIGN §9), so no plan entry needs a timer of its own. The
// clock is left at the last expiry's instant; the caller moves it the
// rest of the way with JumpTo.
func (e *Engine) AdvanceTo(to int64, exclusive bool) error {
	for {
		next, ok := e.NextExpiry()
		if !ok || next > to || (exclusive && next == to) {
			return nil
		}
		e.now = next
		e.KillExpired()
		if err := e.Replan(); err != nil {
			return err
		}
	}
}

// NextExpiry returns the earliest estimated end among the running jobs,
// never before the current time: the next instant at which the machine
// acts on its own. It reports false when nothing runs.
func (e *Engine) NextExpiry() (int64, bool) {
	if len(e.running) == 0 {
		return 0, false
	}
	next := e.running[0].EstimatedEnd()
	for _, r := range e.running[1:] {
		next = min(next, r.EstimatedEnd())
	}
	return max(next, e.now), true
}

// removeWaiting splices a job out of the waiting queue, preserving
// submission order.
func (e *Engine) removeWaiting(id job.ID) (*job.Job, bool) {
	i := e.waitingAt(id)
	if i < 0 {
		return nil, false
	}
	j := e.waiting[i]
	e.waiting = slices.Delete(e.waiting, i, i+1)
	return j, true
}

// CheckInvariants verifies the engine's internal consistency: the queue
// is in submission order, no job is listed twice or both waiting and
// running, the running set fits the effective capacity, and the plan in
// force has not been superseded by its driver. A healthy engine always
// returns nil. It scans the queues once per job, which is quadratic: it
// is for tests and the chaos harness, not for the event loop.
func (e *Engine) CheckInvariants() error {
	if e.plan != nil && e.plan.Released() {
		return fmt.Errorf("engine: the plan in force (t=%d, %v) was superseded", e.plan.Now, e.plan.Policy)
	}
	if e.failed < 0 || e.failed > e.capacity {
		return fmt.Errorf("engine: %d failed processors out of [0, %d]", e.failed, e.capacity)
	}
	for i, w := range e.waiting {
		if i > 0 && w.Submit < e.waiting[i-1].Submit {
			return fmt.Errorf("engine: waiting job %d (submitted t=%d) queued behind a later submission", w.ID, w.Submit)
		}
		if e.waitingAt(w.ID) != i {
			return fmt.Errorf("engine: job %d waiting twice", w.ID)
		}
		if e.IsRunning(w.ID) {
			return fmt.Errorf("engine: job %d both waiting and running", w.ID)
		}
	}
	used := 0
	for i, r := range e.running {
		if e.runningAt(r.Job.ID) != i {
			return fmt.Errorf("engine: job %d running twice", r.Job.ID)
		}
		used += r.Job.Width
	}
	if used != e.used {
		return fmt.Errorf("engine: %d processors recorded in use, running set occupies %d", e.used, used)
	}
	if used > e.Effective() {
		return fmt.Errorf("engine: %d processors in use exceed effective capacity %d", used, e.Effective())
	}
	return nil
}
