// Package rms embeds the dynP scheduler in an *online* planning-based
// resource management system — the role the CCS system plays for the
// paper's clusters. Unlike the offline simulator (internal/sim), which
// replays a job set whose actual run times are known in advance, the
// online scheduler learns completions from the outside world: clients
// submit jobs with estimates, report completions, and the RMS kills jobs
// whose estimates expire (the guarantee that makes planning sound).
//
// Time is explicit: the caller drives the clock with Advance, which makes
// the core fully deterministic and testable; a real-time front end (see
// cmd/dynpd) simply calls Advance from a wall-clock ticker.
//
// The schedule mechanics — machine state, replan-and-launch, kill and
// victim transitions — live in internal/engine, shared with the offline
// simulator, so the simulator-tested logic and the crash-safe online
// logic are one implementation. This package is the concurrency, journal
// and protocol shell around that engine: it serialises access, keeps the
// finished jobs' history (a live job's JobInfo is read off the engine
// and the plan in force whenever an image is cut), and records every
// external event in an optional crash-safe write-ahead journal (see
// journal.go) whose replay rebuilds identical state after a daemon
// crash. Processors can fail and be restored at run time (Fail/Restore),
// killing the last started running jobs first when the machine shrinks
// under them.
package rms

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/sim"
)

// JobState describes where a job currently is in its lifecycle.
type JobState int

// The job lifecycle states.
const (
	StateWaiting JobState = iota
	StateRunning
	StateCompleted
	StateKilled // estimate expired; the RMS terminated the job
	StateFailed // processors failed under the job; killed, the last started first
)

var stateNames = [...]string{"waiting", "running", "completed", "killed", "failed"}

// String returns the lowercase state name.
func (s JobState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// NeverStart is the sentinel planned start of a waiting job that cannot
// be placed at all under the current effective capacity (its width
// exceeds the processors that are still up). The job stays queued; once
// enough capacity is restored the next replanning event assigns it a
// real planned start again.
const NeverStart int64 = -1

// JobInfo is the externally visible status of one job.
type JobInfo struct {
	ID           job.ID
	Width        int
	Estimate     int64
	Submitted    int64
	State        JobState
	PlannedStart int64 // while waiting, NeverStart if unplaceable; once started, Started
	Started      int64 // meaningful once running
	Finished     int64 // meaningful once completed/killed/failed
}

// Scheduler is an online planning-based RMS core. Create with New; all
// methods are safe for concurrent use.
//
// Reads and writes are decoupled: every mutation, while still holding
// the scheduling mutex, publishes an immutable image of the scheduler,
// and every read — Status, Report, Job, Finished, Now, QueueDepth and
// Quote — answers from one image, loaded with a single atomic load. A
// storm of readers therefore never delays a scheduling event, and a long
// replan never delays a reader: readers see the state as of the last
// completed mutation, which is exactly the consistency a mutex would give
// them minus the waiting.
type Scheduler struct {
	mu     sync.Mutex
	eng    *engine.Engine
	driver sim.Driver
	nextID job.ID

	done []JobInfo // completed, killed and failed jobs, in finish order
	agg  reportAgg // running Report aggregates over done, in finish order

	// doneLog is the finished history as a checkpoint record encodes it:
	// the JSON of done[:doneLogged], comma-joined. Finished entries never
	// change, so captureCheckpointLocked only appends the jobs that
	// finished since the last checkpoint, and the journal splices the log
	// into the record instead of encoding the whole history again.
	doneLog    []byte
	doneLogged int

	// doneIdx maps a finished job to its index in done, letting Job(id)
	// answer history lookups from an image without the scheduling lock.
	// Guarded by doneMu, not mu, so readers resolving an index never
	// contend with a replan.
	doneMu  sync.RWMutex
	doneIdx map[job.ID]int

	// jp is the attached journal, nil if none. Mutators load it under the
	// lock; JournalErr loads it without, for lock-free health checks.
	jp atomic.Pointer[Journal]

	// img is the published image, swapped wholesale after every mutation
	// (see publish). Never nil once New returns.
	img atomic.Pointer[image]

	// Quote service state (see quote.go). quotesOn gates the driver-state
	// capture in every image, so schedulers that never call EnableQuotes
	// pay nothing for it. twinMu guards the quote factory and the idle
	// warm twins (takeTwin).
	quotesOn atomic.Bool
	twinMu   sync.Mutex
	quoteNew func() sim.Driver
	twins    []*twin
}

// image is one immutable state of the scheduler, cut after a mutation.
// Its checkpointState holds the clock, the next ID, the failed
// processors, the live jobs in engine order — waiting jobs in submission
// order, which is ascending ID order, running ones in start order — and
// the finished history; counts holds the engine's transitions by kind
// and cases a self-tuning driver's decisions by Table 1 case, which the
// metrics op serves. While quotes are on, a self-tuning driver's
// decision state rides along too, as the value its tuner captured (tuner,
// allocated with the image as a tunedImage): exactly what a quote twin
// restores. The event count and the byte forms of the counts
// and the decision state (Transitions, Driver) stay empty; only a
// checkpoint fills them (see captureCheckpointLocked). Done aliases the
// scheduler's backing array capped at its length — appends behind it
// touch only indices the image never reads, and finished entries are
// never mutated in place, so sharing is safe.
type image struct {
	checkpointState
	capacity  int // installed processors
	used      int // processors held by running jobs
	active    string
	scheduler string
	agg       reportAgg
	counts    engine.Counts
	cases     core.CaseCounts
	tuner     *core.TunerState
	driverErr error // capturing the driver's state failed; quotes and checkpoints refuse
}

// tunedImage is an image and its tuner's state in one allocation, so an
// image without one carries no room for it.
type tunedImage struct {
	image
	tuner core.TunerState
}

// imageLocked cuts an image of the current state, with a self-tuning
// driver's decision state when driver is set. A live job's JobInfo is
// derived here, from the engine: a waiting job's planned start is its
// entry in the plan in force, completed first, or NeverStart when that
// plan has none — the job is wider than the processors that are up, or
// the machine is drained. A running job launched at its entry's start, so
// its planned start is its start. Callers hold the scheduling lock.
func (s *Scheduler) imageLocked(driver bool) *image {
	var img *image
	td, tuned := s.driver.(core.Tuned)
	if driver && tuned {
		ti := new(tunedImage)
		img = &ti.image
		img.tuner = &ti.tuner
	} else {
		img = new(image)
	}
	img.Now, img.NextID, img.Failed = s.eng.Now(), int64(s.nextID), s.eng.FailedProcs()
	img.capacity, img.used = s.eng.Capacity(), s.eng.Used()
	img.active, img.scheduler, img.agg = policyName(s.driver.ActivePolicy()), s.driver.Name(), s.agg
	img.counts = s.eng.Counts()
	if tuned {
		img.cases = td.Cases()
	}
	if waiting := s.eng.Waiting(); len(waiting) > 0 {
		img.Waiting = make([]JobInfo, len(waiting))
		for i, j := range waiting {
			img.Waiting[i] = jobInfo(j, StateWaiting, NeverStart)
		}
		if p := s.eng.Schedule(); p != nil {
			p.Complete()
			for _, e := range p.Entries {
				if i, ok := waitingPos(img.Waiting, e.Job.ID); ok {
					img.Waiting[i].PlannedStart = e.Start
				}
			}
		}
	}
	if running := s.eng.Running(); len(running) > 0 {
		img.Running = make([]JobInfo, len(running))
		for i, r := range running {
			img.Running[i] = jobInfo(r.Job, StateRunning, r.Start)
			img.Running[i].Started = r.Start
		}
	}
	if n := len(s.done); n > 0 {
		img.Done = s.done[:n:n]
	}
	if img.tuner != nil {
		*img.tuner, img.driverErr = td.TunerState()
	}
	return img
}

// jobInfo is the JobInfo of j in state st, planned to start at planned.
func jobInfo(j *job.Job, st JobState, planned int64) JobInfo {
	return JobInfo{ID: j.ID, Width: j.Width, Estimate: j.Estimate,
		Submitted: j.Submit, State: st, PlannedStart: planned}
}

// waitingPos finds job id among an image's waiting jobs, which are in
// ascending ID order.
func waitingPos(waiting []JobInfo, id job.ID) (int, bool) {
	return slices.BinarySearchFunc(waiting, id, func(w JobInfo, id job.ID) int { return cmp.Compare(w.ID, id) })
}

// publish swaps in an image of the current state and returns it.
// Callers hold the scheduling lock; readers are never blocked by it.
func (s *Scheduler) publish() *image {
	img := s.imageLocked(s.quotesOn.Load())
	s.img.Store(img)
	return img
}

// New returns an online scheduler for a machine with the given capacity,
// using the given planning driver (a static policy, dynP, or EASY). The
// clock starts at startTime.
func New(capacity int, driver sim.Driver, startTime int64) (*Scheduler, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("rms: capacity %d < 1", capacity)
	}
	if driver == nil {
		return nil, fmt.Errorf("rms: nil driver")
	}
	s := &Scheduler{
		driver:  driver,
		doneIdx: make(map[job.ID]int),
	}
	s.eng = engine.New(capacity, driver, startTime, engine.WithHooks(engine.Hooks{
		Finished: s.onFinished,
	}))
	s.replan()
	s.publish()
	return s, nil
}

// onFinished records a job leaving the machine, whatever the reason, in
// the finished history. The engine calls it with the scheduler lock held.
func (s *Scheduler) onFinished(r plan.Running, st engine.FinishState, now int64) {
	info := jobInfo(r.Job, StateCompleted, r.Start)
	switch st {
	case engine.FinishKilled:
		info.State = StateKilled
	case engine.FinishFailed:
		info.State = StateFailed
	}
	info.Started, info.Finished = r.Start, now
	s.doneMu.Lock()
	s.doneIdx[info.ID] = len(s.done)
	s.doneMu.Unlock()
	s.done = append(s.done, info)
	s.agg.add(info)
}

// checkState reports an error unless job id is in state want. A live
// job's state is the engine's; a finished one's, the history's. Callers
// hold the scheduling lock, which every writer of doneIdx holds too.
func (s *Scheduler) checkState(id job.ID, want JobState) error {
	st := StateWaiting
	switch {
	case s.eng.IsWaiting(id):
	case s.eng.IsRunning(id):
		st = StateRunning
	default:
		i, ok := s.doneIdx[id]
		if !ok {
			return fmt.Errorf("rms: unknown job %d", id)
		}
		st = s.done[i].State
	}
	if st != want {
		return fmt.Errorf("rms: job %d is %s, not %s", id, st, want)
	}
	return nil
}

// replan runs one shared scheduling event. The engine's graceful launch
// mode never returns an error. Callers hold the lock.
func (s *Scheduler) replan() { _ = s.eng.Replan() }

// AddObserver attaches an observer to the scheduling engine: it receives
// every transition (submissions, starts, completions, kills, capacity
// changes and one EventPlan per scheduling event) as structured
// engine.Event values, synchronously under the scheduler lock. Observe
// must not call back into the scheduler. An observer only watches: no
// checkpoint carries what it saw, so after a restart it sees only the
// transitions replayed since the newest checkpoint.
func (s *Scheduler) AddObserver(o engine.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.AddObserver(o)
}

// Metrics returns the lifetime counts — the engine's transitions by
// kind and a self-tuning driver's decisions by Table 1 case — as of the
// last completed mutation. It never takes the scheduling lock. The counts
// are scheduler state: checkpoints carry them and replay verifies them,
// so they survive a restart exactly. The wall-clock fields stay zero; an
// EventTrace fills them in (the server's metrics op).
func (s *Scheduler) Metrics() EngineMetrics {
	img := s.img.Load()
	m := EngineMetrics{Events: transitionsByName(&img.counts), Plans: img.counts[engine.EventPlan]}
	for label, n := range img.cases.Map() {
		if m.Cases == nil {
			m.Cases = make(map[string]int64)
		}
		m.Cases[label] = int64(n)
	}
	return m
}

// SetJournal attaches a write-ahead journal: every subsequent external
// event (submit, complete, cancel, advance, deliver, fail, restore) is
// appended — and flushed — before it mutates scheduler state, so a
// crashed daemon can rebuild identical state with Journal.Replay. Attach
// after replaying, before serving traffic. If the journal is empty, a
// header describing this scheduler is written so a later replay can
// reject a mismatched configuration.
func (s *Scheduler) SetJournal(j *Journal) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j != nil && j.fresh() {
		if err := j.writeHeader(journalHeader{
			Version:   journalVersion,
			Capacity:  s.eng.Capacity(),
			Scheduler: s.driver.Name(),
			Start:     s.eng.Now(),
		}); err != nil {
			return fmt.Errorf("rms: journal header: %w", err)
		}
	}
	s.jp.Store(j)
	return nil
}

// JournalErr reports the attached journal's sticky failure, if any,
// without taking the scheduling lock or the journal's. A scheduler
// whose journal has failed still serves reads but refuses every
// mutation, and the daemon's readiness check turns not-ready.
func (s *Scheduler) JournalErr() error {
	if j := s.jp.Load(); j != nil {
		return j.Err()
	}
	return nil
}

// QueueDepth returns the number of waiting jobs as of the last
// completed mutation, without taking the scheduling lock — the figure
// the server's readiness watermark checks.
func (s *Scheduler) QueueDepth() int { return len(s.img.Load().Waiting) }

// Now returns the scheduler's current time as of the last completed
// mutation. It never takes the scheduling lock.
func (s *Scheduler) Now() int64 { return s.img.Load().Now }

// errUnknownOp refuses an event whose op changes no scheduler state.
var errUnknownOp = errors.New("rms: unknown op")

// apply is the one write path: every external state change — a public
// mutator's, a wire request's, a replayed journal record's — goes
// through it, under the scheduling lock, in five steps. It checks ev
// against the current state; journals it ahead of any change, unless it
// is a tick to the current instant, which a replay does not need; applies
// it to the engine and replans (a tick only lets estimates run out); lets
// the journal cut a checkpoint; and publishes one image, which it returns
// for the caller to read its answer off. A refused event changes nothing,
// journals nothing and publishes nothing — except a deliver batch refused
// after its clock move: it was journaled ahead of the move, so a replay
// refuses it identically, and it publishes the moved clock, but cuts no
// checkpoint. On a journal write error the event is not applied: the
// journal is the authority after a crash.
func (s *Scheduler) apply(ev *Request) (*image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(ev); err != nil {
		return nil, err
	}
	j := s.jp.Load()
	if j != nil && (ev.Op != opTick || ev.To != s.eng.Now()) {
		if err := j.Append(*ev); err != nil {
			return nil, fmt.Errorf("rms: journal: %w", err)
		}
	}
	if err := s.change(ev); err != nil {
		return s.publish(), err
	}
	if ev.Op != opTick {
		s.replan()
	}
	if j != nil {
		j.maybeCheckpoint(s)
	}
	return s.publish(), nil
}

// check refuses ev unless it applies to the current state. A deliver
// batch's completions and submissions are checked after its clock move
// (see change), against the state at its instant. Callers hold the
// scheduling lock.
func (s *Scheduler) check(ev *Request) error {
	now, failed, capacity := s.eng.Now(), s.eng.FailedProcs(), s.eng.Capacity()
	switch ev.Op {
	case opSubmit:
		return checkShape(ev.Width, ev.Estimate, capacity, s.eng.Effective())
	case opDone:
		return s.checkState(job.ID(ev.ID), StateRunning)
	case opCancel:
		return s.checkState(job.ID(ev.ID), StateWaiting)
	case opTick:
		if ev.To < now {
			return fmt.Errorf("rms: cannot advance from %d back to %d", now, ev.To)
		}
	case opDeliver:
		if ev.To < now {
			return fmt.Errorf("rms: cannot deliver at %d before current time %d", ev.To, now)
		}
	case opFail:
		if ev.Procs < 1 {
			return fmt.Errorf("rms: fail %d processors < 1", ev.Procs)
		}
		if failed+ev.Procs > capacity {
			return fmt.Errorf("rms: failing %d processors exceeds capacity (%d of %d already failed)",
				ev.Procs, failed, capacity)
		}
	case opRestore:
		if ev.Procs < 1 {
			return fmt.Errorf("rms: restore %d processors < 1", ev.Procs)
		}
		if ev.Procs > failed {
			return fmt.Errorf("rms: restore %d exceeds %d failed processors", ev.Procs, failed)
		}
	default:
		return fmt.Errorf("%w %q", errUnknownOp, ev.Op)
	}
	return nil
}

// change applies a checked event to the engine, short of replanning.
// Only a deliver batch can still be refused here, after its clock move:
// its completions first (a job completing exactly at its estimate counts
// as completed, not killed), then the expiries at its instant, then its
// submissions. Callers hold the scheduling lock.
func (s *Scheduler) change(ev *Request) error {
	switch ev.Op {
	case opSubmit:
		s.submit(ev.Width, ev.Estimate)
	case opDone:
		s.eng.Finish(job.ID(ev.ID), engine.FinishCompleted)
	case opCancel:
		s.eng.CancelWaiting(job.ID(ev.ID))
	case opTick:
		_ = s.eng.AdvanceTo(ev.To, false)
		s.eng.JumpTo(ev.To)
	case opDeliver:
		_ = s.eng.AdvanceTo(ev.To, true)
		s.eng.JumpTo(ev.To)
		if err := s.checkBatch(ev.Completions, ev.Subs); err != nil {
			return err
		}
		for _, id := range ev.Completions {
			s.eng.Finish(job.ID(id), engine.FinishCompleted)
		}
		s.eng.FinishEnded(engine.FinishKilled)
		for _, sub := range ev.Subs {
			s.submit(sub.Width, sub.Estimate)
		}
	case opFail:
		s.eng.FailProcs(ev.Procs)
	case opRestore:
		s.eng.RestoreProcs(ev.Procs)
	}
	return nil
}

// submit enters a job at the current time under the next ID. The actual
// run time is unknown online, so the job's run time is its estimate: the
// planner never reads it, and the engine kills the job when it runs out.
// Callers hold the scheduling lock.
func (s *Scheduler) submit(width int, estimate int64) {
	s.nextID++
	s.eng.Submit(&job.Job{ID: s.nextID, Submit: s.eng.Now(), Width: width,
		Estimate: estimate, Runtime: estimate})
}

// Submit enters a job (width processors for at most estimate seconds) at
// the current time and returns its ID and planned start time. Width is
// validated against the installed capacity: a job wider than the
// processors currently up is accepted and queued (planned start
// NeverStart) until enough capacity is restored.
func (s *Scheduler) Submit(width int, estimate int64) (JobInfo, error) {
	img, err := s.apply(&Request{Op: opSubmit, Width: width, Estimate: estimate})
	if err != nil {
		return JobInfo{}, err
	}
	return s.jobIn(img, job.ID(img.NextID))
}

// checkShape validates a job's shape, as Submit, Deliver and Quote take
// it: a width within the installed capacity (a job wider than the
// effective capacity is legal and queues) and a positive estimate.
func checkShape(width int, estimate int64, capacity, effective int) error {
	if width < 1 || width > capacity {
		return fmt.Errorf("rms: width %d out of [1, %d] (effective capacity now %d)", width, capacity, effective)
	}
	if estimate < 1 {
		return fmt.Errorf("rms: estimate %d < 1", estimate)
	}
	return nil
}

// Complete reports that a running job finished at the current time.
func (s *Scheduler) Complete(id job.ID) (JobInfo, error) {
	img, err := s.apply(&Request{Op: opDone, ID: int64(id)})
	if err != nil {
		return JobInfo{}, err
	}
	return s.jobIn(img, id)
}

// Cancel removes a waiting job from the queue.
func (s *Scheduler) Cancel(id job.ID) error {
	_, err := s.apply(&Request{Op: opCancel, ID: int64(id)})
	return err
}

// Fail takes procs processors out of service at the current time — a
// node crash or a drain for maintenance. Running jobs that no longer fit
// the remaining capacity are terminated (state StateFailed), the last
// started first; waiting jobs wider than the remaining
// capacity stay queued with planned start NeverStart; everything else is
// replanned against the shrunken machine.
func (s *Scheduler) Fail(procs int) error {
	_, err := s.apply(&Request{Op: opFail, Procs: procs})
	return err
}

// Restore returns procs previously failed processors to service at the
// current time and replans: unplaceable jobs get real planned starts
// again, and waiting work may begin immediately.
func (s *Scheduler) Restore(procs int) error {
	_, err := s.apply(&Request{Op: opRestore, Procs: procs})
	return err
}

// Advance moves the clock to the given time. At each instant on the way
// where estimates run out, the expired jobs are killed and the scheduler
// replans, which starts what the new plan makes due; nothing else
// happens on its own. It is an error to move the clock backwards.
// Advancing to the current time is journaled as nothing, which keeps a
// real-time ticker from flooding the journal.
func (s *Scheduler) Advance(to int64) error {
	_, err := s.apply(&Request{Op: opTick, To: to})
	return err
}

// Submission describes one job of a Deliver batch.
type Submission struct {
	Width    int   `json:"width"`
	Estimate int64 `json:"estimate"`
}

// Deliver applies a batch of simultaneous external events atomically: the
// clock moves to t (processing estimate expiries strictly before t on the
// way), then all completions, estimate expiries and submissions at t take
// effect before a single replanning step. This mirrors how the offline
// discrete event simulator treats same-instant events and is the right
// entry point for bridges that replay simulated workloads; interactive
// use (Submit/Complete) replans eagerly instead, which can order
// same-instant events differently. An empty batch at the current instant
// is journaled too: it still replans, which moves a self-tuner's decision
// state.
//
// The returned infos correspond to the submissions, in order.
func (s *Scheduler) Deliver(t int64, completions []job.ID, subs []Submission) ([]JobInfo, error) {
	ids := make([]int64, len(completions))
	for i, id := range completions {
		ids[i] = int64(id)
	}
	img, err := s.apply(&Request{Op: opDeliver, To: t, Completions: ids, Subs: subs})
	if err != nil {
		return nil, err
	}
	return s.submittedIn(img, len(subs)), nil
}

// submittedIn returns the infos, as of img, of the last n jobs submitted
// by then: a deliver batch's submissions, in order.
func (s *Scheduler) submittedIn(img *image, n int) []JobInfo {
	out := make([]JobInfo, n)
	for i := range out {
		out[i], _ = s.jobIn(img, job.ID(img.NextID-int64(n-1-i)))
	}
	return out
}

// checkBatch validates a whole Deliver batch before any of it applies,
// so a bad entry cannot leave the batch half-applied. Callers hold the
// scheduling lock.
func (s *Scheduler) checkBatch(completions []int64, subs []Submission) error {
	seen := make(map[job.ID]struct{}, len(completions))
	for _, c := range completions {
		id := job.ID(c)
		if _, dup := seen[id]; dup {
			return fmt.Errorf("rms: duplicate completion for job %d", id)
		}
		seen[id] = struct{}{}
		if err := s.checkState(id, StateRunning); err != nil {
			return err
		}
	}
	for _, sub := range subs {
		if err := checkShape(sub.Width, sub.Estimate, s.eng.Capacity(), s.eng.Effective()); err != nil {
			return err
		}
	}
	return nil
}

// Status is a snapshot of the whole system.
type Status struct {
	Now          int64
	Capacity     int // installed processors
	FailedProcs  int // processors currently out of service
	UsedProcs    int
	ActivePolicy string // policy name; "" before the first plan
	Scheduler    string
	Waiting      []JobInfo // by planned start, ties by ID
	Running      []JobInfo // by start time, ties by ID
	Finished     int       // completed + killed + failed so far
}

// Status returns a consistent snapshot of the whole system as of the
// last completed mutation. It never takes the scheduling lock: a storm
// of status readers cannot delay a scheduling event. The slices are the
// caller's to keep: copies of the shared image's, sorted here because an
// image keeps engine order, so that a mutation pays for no sort nobody
// reads.
func (s *Scheduler) Status() Status { return s.img.Load().status() }

// status is img as a Status, its slices the caller's.
func (img *image) status() Status {
	st := Status{
		Now:          img.Now,
		Capacity:     img.capacity,
		FailedProcs:  img.Failed,
		UsedProcs:    img.used,
		ActivePolicy: img.active,
		Scheduler:    img.scheduler,
		Waiting:      slices.Clone(img.Waiting),
		Running:      slices.Clone(img.Running),
		Finished:     len(img.Done),
	}
	slices.SortFunc(st.Waiting, func(a, b JobInfo) int {
		return cmp.Or(cmp.Compare(a.PlannedStart, b.PlannedStart), cmp.Compare(a.ID, b.ID))
	})
	slices.SortFunc(st.Running, func(a, b JobInfo) int {
		return cmp.Or(cmp.Compare(a.Started, b.Started), cmp.Compare(a.ID, b.ID))
	})
	return st
}

// Job returns the status of a single job (including finished ones) as of
// the last completed mutation. It never takes the scheduling lock, so
// single-job pollers cannot be starved by a long replan.
func (s *Scheduler) Job(id job.ID) (JobInfo, error) { return s.jobIn(s.img.Load(), id) }

// jobIn looks a job up in img: a waiting job by binary search, a running
// one by scanning from the latest start back, a finished one through the
// history index. A job the image does not hold is unknown as of that
// image, whatever happened since.
func (s *Scheduler) jobIn(img *image, id job.ID) (JobInfo, error) {
	if i, ok := waitingPos(img.Waiting, id); ok {
		return img.Waiting[i], nil
	}
	for i := len(img.Running) - 1; i >= 0; i-- {
		if img.Running[i].ID == id {
			return img.Running[i], nil
		}
	}
	s.doneMu.RLock()
	idx, ok := s.doneIdx[id]
	s.doneMu.RUnlock()
	if ok && idx < len(img.Done) {
		return img.Done[idx], nil
	}
	return JobInfo{}, fmt.Errorf("rms: unknown job %d", id)
}

// Finished returns the jobs that completed, were killed, or died to a
// capacity failure, in finish order, as of the last completed mutation.
// It never takes the scheduling lock.
func (s *Scheduler) Finished() []JobInfo { return slices.Clone(s.img.Load().Done) }

// CheckInvariants verifies the scheduler's internal consistency: the
// engine's machine state is coherent (see engine.CheckInvariants), and
// every live job's run time is its estimate, the instant at which the
// engine kills it. A live job's state is the engine's alone, so there is
// no second copy to reconcile. It exists for tests and the chaos harness; a healthy
// scheduler always returns nil.
func (s *Scheduler) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.CheckInvariants(); err != nil {
		return fmt.Errorf("rms: %w", err)
	}
	for _, j := range s.eng.Waiting() {
		if j.Runtime != j.Estimate {
			return fmt.Errorf("rms: waiting job %d runs %d s on an estimate of %d s", j.ID, j.Runtime, j.Estimate)
		}
	}
	for _, r := range s.eng.Running() {
		if r.Job.Runtime != r.Job.Estimate {
			return fmt.Errorf("rms: running job %d runs %d s on an estimate of %d s", r.Job.ID, r.Job.Runtime, r.Job.Estimate)
		}
	}
	return nil
}
