// Package engine is the event-driven scheduling core shared by the
// offline discrete event simulator (internal/sim) and the online
// resource management system (internal/rms). The paper's scheduler is
// one mechanism — at every scheduling event the driver recomputes the
// full schedule and every job planned to start right now is launched —
// and this package is its single implementation: machine state
// (capacity, failed processors), running/waiting bookkeeping, the
// apply-events→replan→launch cycle, finish/cancel/kill transitions and
// invariant checks.
//
// The engine is parameterised by its front end in two places:
//
//   - the Clock. The engine owns the current time but never advances it
//     on its own. The simulator jumps it to each event instant (JumpTo)
//     and injects completions itself, because actual run times are known
//     in advance; the online RMS sweeps it forward (AdvanceTo), letting
//     the engine fire the automatic actions — estimate expiries and
//     planned starts — that occur on the way.
//   - the Driver, the planning interface of internal/sim: a static
//     policy, the self-tuning dynP scheduler, or EASY backfilling.
//
// Hooks let the front end keep its own per-job bookkeeping (the
// simulator's completion events and records, the RMS's JobInfo
// lifecycle) exactly in step with the engine's transitions, and
// Observers receive a structured event stream (see observer.go) for
// tracing and metrics. The engine is not safe for concurrent use; the
// RMS serialises access with its own mutex.
package engine

import (
	"fmt"
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
	// plan — Verify, the Planned* scores, NextActionTime, the RMS's
	// planned starts and checkpoints — calls the schedule's Complete
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
// benchmark/trace.go names it (ROADMAP.md, item 1(c)).
type QueueTracker interface {
	NoteSubmit(j *job.Job)
	NoteRemove(j *job.Job)
}

// ObservingDriver is an optional Driver extension: a driver whose
// decisions depend on watching the engine it plans for (the self-tuning
// driver with an observer-driven decider) returns that observer, and New
// attaches it after the option observers. A nil observer attaches
// nothing, so plain drivers keep the allocation-free emit path.
type ObservingDriver interface {
	DeciderObserver() Observer
}

// FinishState says why a job left the machine.
type FinishState int

// The ways a running job ends.
const (
	FinishCompleted FinishState = iota // the outside world reported completion
	FinishKilled                       // its estimate expired; the RMS terminated it
	FinishFailed                       // processors failed under it; the victim policy terminated it
)

// Hooks are the front end's per-job bookkeeping callbacks, invoked
// synchronously inside the corresponding transition. All are optional.
type Hooks struct {
	// Started fires when a job launches (it has left the waiting queue
	// and occupies its processors).
	Started func(j *job.Job, now int64)
	// Finished fires when a running job leaves the machine.
	Finished func(j *job.Job, st FinishState, now int64)
	// Planned fires after every replanning step, before due jobs are
	// launched. sched is nil when the machine is fully drained
	// (effective capacity < 1); unplaceable lists the waiting jobs
	// wider than the effective capacity, withheld from the planner.
	// A hook reading the whole plan calls sched.Complete first.
	Planned func(sched *plan.Schedule, unplaceable []*job.Job)
}

// Engine is the shared scheduling core. Construct with New.
type Engine struct {
	capacity int // installed processors
	failed   int // processors currently failed
	driver   Driver
	now      int64
	victims  VictimPolicy
	hooks    Hooks
	obs      []Observer

	waiting    []*job.Job // submission order
	waitingIdx map[job.ID]int
	running    []plan.Running // start order
	runningIdx map[job.ID]int
	used       int // processors in use
	finished   int // jobs that left the machine, ever
	plan       *plan.Schedule

	strict bool // launch capacity violations are errors, not skips
	verify bool // verify every schedule against the machine state
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithHooks installs the front end's bookkeeping callbacks.
func WithHooks(h Hooks) Option { return func(e *Engine) { e.hooks = h } }

// WithStrictLaunch makes a due job that exceeds the effective capacity a
// hard error instead of a skip. The simulator uses it: with known run
// times an infeasible start can only mean a rogue driver. The online RMS
// keeps the default graceful skip, because capacity can shrink under a
// valid plan.
func WithStrictLaunch() Option { return func(e *Engine) { e.strict = true } }

// WithVerify makes the engine verify every schedule against the current
// machine state (slow; used by tests and debugging).
func WithVerify() Option { return func(e *Engine) { e.verify = true } }

// WithObserver registers an observer for the engine's event stream.
func WithObserver(o Observer) Option { return func(e *Engine) { e.AddObserver(o) } }

// New returns an engine for a machine with the given capacity, planning
// with the given driver, with the clock at start.
func New(capacity int, driver Driver, start int64, opts ...Option) *Engine {
	e := &Engine{
		capacity:   capacity,
		driver:     driver,
		now:        start,
		victims:    VictimLastStarted,
		waitingIdx: make(map[job.ID]int),
		runningIdx: make(map[job.ID]int),
	}
	for _, o := range opts {
		o(e)
	}
	if od, ok := driver.(ObservingDriver); ok {
		e.AddObserver(od.DeciderObserver())
	}
	return e
}

// AddObserver registers an observer after construction.
func (e *Engine) AddObserver(o Observer) {
	if o != nil {
		e.obs = append(e.obs, o)
	}
}

// SetVictimPolicy replaces the policy that picks which running jobs die
// when a capacity failure oversubscribes the machine. A nil policy
// restores the default (VictimLastStarted).
func (e *Engine) SetVictimPolicy(p VictimPolicy) {
	if p == nil {
		p = VictimLastStarted
	}
	e.victims = p
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
func (e *Engine) IsWaiting(id job.ID) bool {
	_, ok := e.waitingIdx[id]
	return ok
}

// IsRunning reports whether the job is on the machine.
func (e *Engine) IsRunning(id job.ID) bool {
	_, ok := e.runningIdx[id]
	return ok
}

// JumpTo moves the clock without firing any automatic actions — the
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
	e.waitingIdx[j.ID] = len(e.waiting)
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
	i, ok := e.runningIdx[id]
	if !ok {
		return false
	}
	r := e.running[i]
	e.running = append(e.running[:i], e.running[i+1:]...)
	delete(e.runningIdx, id)
	for k := i; k < len(e.running); k++ {
		e.runningIdx[e.running[k].Job.ID] = k
	}
	e.used -= r.Job.Width
	e.finished++
	if e.hooks.Finished != nil {
		e.hooks.Finished(r.Job, st, e.now)
	}
	e.emit(Event{Kind: finishEventKind(st), Job: r.Job, Procs: r.Job.Width})
	return true
}

// FailProcs takes n processors out of service and terminates running
// jobs until the rest fit, in victim-policy order. The caller validates
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

// killVictims terminates running jobs until the rest fit the effective
// capacity, consulting the victim policy for the order. A policy that
// returns stale or insufficient victims is backstopped by the default
// order so the machine is never left oversubscribed.
func (e *Engine) killVictims() {
	eff := e.Effective()
	if e.used <= eff {
		return
	}
	order := e.victims(e.now, append([]plan.Running(nil), e.running...))
	order = append(order, VictimLastStarted(e.now, append([]plan.Running(nil), e.running...))...)
	for _, r := range order {
		if e.used <= eff {
			break
		}
		if !e.IsRunning(r.Job.ID) {
			continue
		}
		e.Finish(r.Job.ID, FinishFailed)
	}
}

// KillExpired terminates running jobs whose estimates expired at the
// current time — the guarantee that makes planning sound — and reports
// whether any were found. It does not replan.
func (e *Engine) KillExpired() bool {
	killed := false
	for _, r := range append([]plan.Running(nil), e.running...) {
		if r.EstimatedEnd() <= e.now {
			e.Finish(r.Job.ID, FinishKilled)
			killed = true
		}
	}
	return killed
}

// Replan is one scheduling event: recompute the full schedule against
// the effective capacity and launch every job planned to start right
// now. Jobs wider than the effective capacity are unplaceable: they are
// withheld from the planner and reported to the Planned hook until
// capacity returns. The returned error is always nil unless strict
// launching or verification is enabled.
func (e *Engine) Replan() error {
	eff := e.Effective()
	if eff < 1 {
		// Fully drained machine: nothing can be planned or started.
		e.plan = nil
		if e.hooks.Planned != nil {
			e.hooks.Planned(nil, e.waiting)
		}
		e.emit(Event{Kind: EventPlan})
		return nil
	}
	planned := e.waiting
	var unplaceable []*job.Job
	for i, j := range e.waiting {
		if j.Width <= eff {
			continue
		}
		// First unplaceable job found; split the queue once.
		planned = append([]*job.Job(nil), e.waiting[:i]...)
		for _, k := range e.waiting[i:] {
			if k.Width <= eff {
				planned = append(planned, k)
			} else {
				unplaceable = append(unplaceable, k)
			}
		}
		break
	}
	// The plan event's latency and decision case exist only for
	// observers; an unobserved engine reads no clock and asks no driver.
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
	if e.hooks.Planned != nil {
		e.hooks.Planned(e.plan, unplaceable)
	}
	if err := e.launchDue(); err != nil {
		return err
	}
	if observed {
		e.emit(Event{Kind: EventPlan, Case: e.decisionCase(), Latency: latency})
	}
	return nil
}

// launchDue starts every waiting job whose planned start is now, reading
// only the entries the driver placed: under Driver.Plan's rule every job
// it left unplaced starts after now. A plan
// entry that no longer fits — the capacity dropped after the plan was
// built, or a rogue driver oversubscribed — is skipped (the job stays
// waiting for the next replanning event) unless strict launching makes
// it an error.
func (e *Engine) launchDue() error {
	if e.plan == nil {
		return nil
	}
	for _, entry := range e.plan.Entries {
		if entry.Start != e.now {
			continue
		}
		j := entry.Job
		if !e.IsWaiting(j.ID) {
			// Started jobs leave stale entries behind until the next
			// replan; front ends may also hold back jobs of their own.
			continue
		}
		if e.used+j.Width > e.Effective() {
			if e.strict {
				return fmt.Errorf("engine: at t=%d: starting %s exceeds capacity (%d used of %d)",
					e.now, j, e.used, e.Effective())
			}
			continue
		}
		e.removeWaiting(j.ID)
		e.runningIdx[j.ID] = len(e.running)
		e.running = append(e.running, plan.Running{Job: j, Start: e.now})
		e.used += j.Width
		if e.hooks.Started != nil {
			e.hooks.Started(j, e.now)
		}
		e.emit(Event{Kind: EventStart, Job: j, Procs: j.Width})
	}
	return nil
}

// AdvanceTo processes automatic actions (estimate expiries, planned
// starts) up to time to — strictly before it when exclusive is set, so
// a front end can batch its own events at to before the shared
// replanning step. The clock is left at the last action's instant; the
// caller moves it the rest of the way with JumpTo.
func (e *Engine) AdvanceTo(to int64, exclusive bool) error {
	stuck := false
	for {
		// After a fruitless replan the due-now entries are infeasible for
		// good (rogue driver, shrunken machine); look strictly ahead so
		// later expiries and starts still fire instead of spinning on or
		// returning at the stuck instant.
		next, ok := e.NextActionTime(stuck)
		if !ok || next > to || (exclusive && next == to) {
			return nil
		}
		prevNow, prevRunning, prevFinished := e.now, len(e.running), e.finished
		e.now = next
		if e.KillExpired() {
			if err := e.Replan(); err != nil {
				return err
			}
		}
		if err := e.launchDue(); err != nil {
			return err
		}
		if e.now == prevNow && len(e.running) == prevRunning && e.finished == prevFinished {
			// A plan entry is due but cannot act — it no longer fits, or
			// a rogue driver planned an infeasible start. Replan once to
			// self-heal before skipping past it.
			if stuck {
				return nil
			}
			stuck = true
			if err := e.Replan(); err != nil {
				return err
			}
			continue
		}
		stuck = false
	}
}

// NextActionTime returns the earliest time at which the machine state
// changes by itself: a planned start or an estimate expiry. It reads the
// whole plan, so it completes a frontier schedule. With
// strictlyAfter set, actions due at the current instant are ignored —
// AdvanceTo uses this to step past entries that proved infeasible.
func (e *Engine) NextActionTime(strictlyAfter bool) (int64, bool) {
	var next int64
	found := false
	consider := func(t int64) {
		if t < e.now {
			t = e.now
		}
		if strictlyAfter && t <= e.now {
			return
		}
		if !found || t < next {
			next, found = t, true
		}
	}
	for _, r := range e.running {
		consider(r.EstimatedEnd())
	}
	if e.plan != nil {
		e.plan.Complete()
		for _, entry := range e.plan.Entries {
			// Only entries of still-waiting jobs can act; started jobs
			// leave stale entries behind until the next replan.
			if e.IsWaiting(entry.Job.ID) {
				consider(entry.Start)
			}
		}
	}
	return next, found
}

// removeWaiting splices a job out of the waiting queue, preserving
// submission order, and reindexes the entries behind it.
func (e *Engine) removeWaiting(id job.ID) (*job.Job, bool) {
	i, ok := e.waitingIdx[id]
	if !ok {
		return nil, false
	}
	j := e.waiting[i]
	e.waiting = append(e.waiting[:i], e.waiting[i+1:]...)
	delete(e.waitingIdx, id)
	for k := i; k < len(e.waiting); k++ {
		e.waitingIdx[e.waiting[k].ID] = k
	}
	return j, true
}

// CheckInvariants verifies the engine's internal consistency: index maps
// match the queues, the running set fits the effective capacity, no job
// is both waiting and running, and the plan in force has not been
// superseded by its driver. A healthy engine always returns nil.
func (e *Engine) CheckInvariants() error {
	if e.plan != nil && e.plan.Released() {
		return fmt.Errorf("engine: the plan in force (t=%d, %v) was superseded", e.plan.Now, e.plan.Policy)
	}
	if e.failed < 0 || e.failed > e.capacity {
		return fmt.Errorf("engine: %d failed processors out of [0, %d]", e.failed, e.capacity)
	}
	if len(e.waitingIdx) != len(e.waiting) {
		return fmt.Errorf("engine: waiting index has %d entries for %d jobs", len(e.waitingIdx), len(e.waiting))
	}
	for i, w := range e.waiting {
		if got, ok := e.waitingIdx[w.ID]; !ok || got != i {
			return fmt.Errorf("engine: waiting job %d at position %d indexed at %d", w.ID, i, got)
		}
		if i > 0 && w.Submit < e.waiting[i-1].Submit {
			return fmt.Errorf("engine: waiting job %d (submitted t=%d) queued behind a later submission", w.ID, w.Submit)
		}
	}
	if len(e.runningIdx) != len(e.running) {
		return fmt.Errorf("engine: running index has %d entries for %d jobs", len(e.runningIdx), len(e.running))
	}
	used := 0
	for i, r := range e.running {
		if got, ok := e.runningIdx[r.Job.ID]; !ok || got != i {
			return fmt.Errorf("engine: running job %d at position %d indexed at %d", r.Job.ID, i, got)
		}
		used += r.Job.Width
	}
	if used != e.used {
		return fmt.Errorf("engine: %d processors recorded in use, running set occupies %d", e.used, used)
	}
	if used > e.Effective() {
		return fmt.Errorf("engine: %d processors in use exceed effective capacity %d", used, e.Effective())
	}
	for _, w := range e.waiting {
		if e.IsRunning(w.ID) {
			return fmt.Errorf("engine: job %d both waiting and running", w.ID)
		}
	}
	return nil
}
