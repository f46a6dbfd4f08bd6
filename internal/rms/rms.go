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
// with a configurable victim policy deciding which running jobs die when
// the machine shrinks under them.
package rms

import (
	"cmp"
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
	StateFailed // processors failed under the job; the victim policy terminated it
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

// VictimPolicy orders the running jobs for termination when a capacity
// failure leaves the machine oversubscribed: victims are killed from the
// front of the returned slice until the remaining jobs fit the effective
// capacity. The input slice is a copy; the policy may reorder it freely.
type VictimPolicy = engine.VictimPolicy

// Victim orderings for capacity failures (see internal/engine).
var (
	// VictimLastStarted kills the most recently started jobs first (ties
	// broken by higher ID first), minimising the amount of finished work
	// a capacity failure destroys. It is the default.
	VictimLastStarted VictimPolicy = engine.VictimLastStarted
	// VictimWidestFirst kills the widest jobs first (ties broken by
	// later start, then higher ID), freeing the most processors per kill.
	VictimWidestFirst VictimPolicy = engine.VictimWidestFirst
)

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

	// stateful collects the attached observers whose state rides along
	// in journal checkpoints (see StatefulObserver).
	stateful []StatefulObserver

	// jp is the attached journal, nil if none. Mutators load it under the
	// lock; JournalErr loads it without, for lock-free health checks.
	jp atomic.Pointer[Journal]

	// img is the published image, swapped wholesale after every mutation
	// (see publish). Never nil once New returns.
	img atomic.Pointer[image]

	// Quote service state (see quote.go). quotesOn gates the driver-state
	// capture in every image, so schedulers that never call EnableQuotes
	// pay nothing for it; quoteNew is written once before quotesOn flips
	// and read lock-free afterwards.
	quotesOn atomic.Bool
	quoteNew func() sim.Driver
}

// image is one immutable state of the scheduler, cut after a mutation.
// Its checkpointState holds the clock, the next ID, the failed
// processors, the live jobs in engine order — waiting jobs in submission
// order, which is ascending ID order, running ones in start order — and
// the finished history; while quotes are on, a self-tuning driver's
// decision state rides along too, as the value its tuner captured (tuner,
// allocated with the image as a tunedImage): exactly what a quote twin
// restores. The plan, observer state, event count and the decision
// state's bytes (Driver) stay empty; only a checkpoint fills them (see
// captureCheckpointLocked). Done aliases the scheduler's backing array
// capped at its length — appends behind it touch only indices the image
// never reads, and finished entries are never mutated in place, so
// sharing is safe.
type image struct {
	checkpointState
	capacity  int // installed processors
	used      int // processors held by running jobs
	active    string
	scheduler string
	agg       reportAgg
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

// SetVictimPolicy replaces the policy that picks which running jobs die
// when a capacity failure oversubscribes the machine. A nil policy
// restores the default (VictimLastStarted).
func (s *Scheduler) SetVictimPolicy(p VictimPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.SetVictimPolicy(p)
}

// AddObserver attaches an observer to the scheduling engine: it receives
// every transition (submissions, starts, completions, kills, capacity
// changes and one EventPlan per scheduling event) as structured
// engine.Event values, synchronously under the scheduler lock. Observe
// must not call back into the scheduler.
func (s *Scheduler) AddObserver(o engine.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.AddObserver(o)
	if so, ok := o.(StatefulObserver); ok {
		s.stateful = append(s.stateful, so)
	}
}

// StatefulObserver is an optional engine.Observer extension: observers
// with state worth surviving a restart (the event trace ring) implement
// it so journal checkpoints capture that state and a restored scheduler
// reinstalls it. States are matched by key, leniently: a checkpoint
// entry with no attached observer of that key is skipped, so observer
// wiring can change between runs without invalidating old checkpoints.
type StatefulObserver interface {
	engine.Observer
	// StateKey identifies the observer's state in a checkpoint.
	StateKey() string
	// SaveState serialises the observer's state.
	SaveState() ([]byte, error)
	// RestoreState installs a previously saved state.
	RestoreState(data []byte) error
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

// journalAppend records an external event ahead of applying it. On a
// journal write error the event must not be applied — the journal is the
// authority after a crash — so callers return the error to the client.
// Callers hold the lock.
func (s *Scheduler) journalAppend(ev Event) error {
	j := s.jp.Load()
	if j == nil {
		return nil
	}
	if err := j.Append(ev); err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	return nil
}

// journalCheckpoint lets the journal cut a periodic checkpoint of the
// post-event state and rotate its segment. Callers hold the lock.
func (s *Scheduler) journalCheckpoint() {
	if j := s.jp.Load(); j != nil {
		j.maybeCheckpoint(s)
	}
}

// Now returns the scheduler's current time as of the last completed
// mutation. It never takes the scheduling lock.
func (s *Scheduler) Now() int64 { return s.img.Load().Now }

// Submit enters a job (width processors for at most estimate seconds) at
// the current time and returns its ID and planned start time. Width is
// validated against the installed capacity: a job wider than the
// processors currently up is accepted and queued (planned start
// NeverStart) until enough capacity is restored.
func (s *Scheduler) Submit(width int, estimate int64) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkShape(width, estimate, s.eng.Capacity(), s.eng.Effective()); err != nil {
		return JobInfo{}, err
	}
	if err := s.journalAppend(Event{Op: opSubmit, Width: width, Estimate: estimate}); err != nil {
		return JobInfo{}, err
	}
	s.nextID++
	s.eng.Submit(&job.Job{
		ID: s.nextID, Submit: s.eng.Now(), Width: width,
		Estimate: estimate,
		// The actual run time is unknown online; the planner never
		// reads it, but the job model requires validity.
		Runtime: estimate,
	})
	s.replan()
	s.journalCheckpoint()
	return s.jobIn(s.publish(), s.nextID)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkState(id, StateRunning); err != nil {
		return JobInfo{}, err
	}
	if err := s.journalAppend(Event{Op: opDone, ID: int64(id)}); err != nil {
		return JobInfo{}, err
	}
	s.eng.Finish(id, engine.FinishCompleted)
	s.replan()
	s.journalCheckpoint()
	return s.publish().Done[s.doneIdx[id]], nil
}

// Cancel removes a waiting job from the queue.
func (s *Scheduler) Cancel(id job.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkState(id, StateWaiting); err != nil {
		return err
	}
	if err := s.journalAppend(Event{Op: opCancel, ID: int64(id)}); err != nil {
		return err
	}
	s.eng.CancelWaiting(id)
	s.replan()
	s.journalCheckpoint()
	s.publish()
	return nil
}

// Fail takes procs processors out of service at the current time — a
// node crash or a drain for maintenance. Running jobs that no longer fit
// the remaining capacity are terminated (state StateFailed) in the order
// chosen by the victim policy; waiting jobs wider than the remaining
// capacity stay queued with planned start NeverStart; everything else is
// replanned against the shrunken machine.
func (s *Scheduler) Fail(procs int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if procs < 1 {
		return fmt.Errorf("rms: fail %d processors < 1", procs)
	}
	if s.eng.FailedProcs()+procs > s.eng.Capacity() {
		return fmt.Errorf("rms: failing %d processors exceeds capacity (%d of %d already failed)",
			procs, s.eng.FailedProcs(), s.eng.Capacity())
	}
	if err := s.journalAppend(Event{Op: opFail, Procs: procs}); err != nil {
		return err
	}
	s.eng.FailProcs(procs)
	s.replan()
	s.journalCheckpoint()
	s.publish()
	return nil
}

// Restore returns procs previously failed processors to service at the
// current time and replans: unplaceable jobs get real planned starts
// again, and waiting work may begin immediately.
func (s *Scheduler) Restore(procs int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if procs < 1 {
		return fmt.Errorf("rms: restore %d processors < 1", procs)
	}
	if procs > s.eng.FailedProcs() {
		return fmt.Errorf("rms: restore %d exceeds %d failed processors", procs, s.eng.FailedProcs())
	}
	if err := s.journalAppend(Event{Op: opRestore, Procs: procs}); err != nil {
		return err
	}
	s.eng.RestoreProcs(procs)
	s.replan()
	s.journalCheckpoint()
	s.publish()
	return nil
}

// Advance moves the clock to the given time, starting jobs whose planned
// start arrives and killing jobs whose estimates expire on the way. It is
// an error to move the clock backwards.
func (s *Scheduler) Advance(to int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if to < s.eng.Now() {
		return fmt.Errorf("rms: cannot advance from %d back to %d", s.eng.Now(), to)
	}
	if to != s.eng.Now() {
		// Advancing to the current time is a no-op; journaling only real
		// moves keeps a real-time ticker from flooding the journal.
		if err := s.journalAppend(Event{Op: opTick, To: to}); err != nil {
			return err
		}
	}
	_ = s.eng.AdvanceTo(to, false)
	s.eng.JumpTo(to)
	s.journalCheckpoint()
	s.publish()
	return nil
}

// Submission describes one job of a Deliver batch.
type Submission struct {
	Width    int   `json:"width"`
	Estimate int64 `json:"estimate"`
}

// Deliver applies a batch of simultaneous external events atomically: the
// clock moves to t (processing automatic actions strictly before t on the
// way), then all completions, estimate expiries and submissions at t take
// effect before a single replanning step. This mirrors how the offline
// discrete event simulator treats same-instant events and is the right
// entry point for bridges that replay simulated workloads; interactive
// use (Submit/Complete) replans eagerly instead, which can order
// same-instant events differently.
//
// The returned infos correspond to the submissions, in order.
func (s *Scheduler) Deliver(t int64, completions []job.ID, subs []Submission) ([]JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.eng.Now() {
		return nil, fmt.Errorf("rms: cannot deliver at %d before current time %d", t, s.eng.Now())
	}
	// Journaled ahead of the clock move: a batch that fails validation
	// below is replayed and rejected identically, leaving the same state
	// (including the advanced clock) as the original run.
	if len(completions) > 0 || len(subs) > 0 || t != s.eng.Now() {
		ids := make([]int64, len(completions))
		for i, id := range completions {
			ids[i] = int64(id)
		}
		if err := s.journalAppend(Event{Op: opDeliver, To: t, Completions: ids, Subs: subs}); err != nil {
			return nil, err
		}
	}
	_ = s.eng.AdvanceTo(t, true)
	s.eng.JumpTo(t)
	if err := s.checkBatch(completions, subs); err != nil {
		s.publish() // the clock moved all the same
		return nil, err
	}

	// Client completions first (a job completing exactly at its
	// estimate counts as completed, not killed), then expiries.
	for _, id := range completions {
		s.eng.Finish(id, engine.FinishCompleted)
	}
	s.eng.KillExpired()

	first := s.nextID + 1
	for _, sub := range subs {
		s.nextID++
		s.eng.Submit(&job.Job{
			ID: s.nextID, Submit: s.eng.Now(), Width: sub.Width,
			Estimate: sub.Estimate, Runtime: sub.Estimate,
		})
	}

	s.replan()
	s.journalCheckpoint()
	img := s.publish()
	out := make([]JobInfo, len(subs))
	for i := range out {
		out[i], _ = s.jobIn(img, first+job.ID(i))
	}
	return out, nil
}

// checkBatch validates a whole Deliver batch before any of it applies,
// so a bad entry cannot leave the batch half-applied. Callers hold the
// scheduling lock.
func (s *Scheduler) checkBatch(completions []job.ID, subs []Submission) error {
	seen := make(map[job.ID]struct{}, len(completions))
	for _, id := range completions {
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
func (s *Scheduler) Status() Status {
	img := s.img.Load()
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
// engine's machine state is coherent (see engine.CheckInvariants). A
// live job's state is the engine's alone, so there is no second copy to
// reconcile. It exists for tests and the chaos harness; a healthy
// scheduler always returns nil.
func (s *Scheduler) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.CheckInvariants(); err != nil {
		return fmt.Errorf("rms: %w", err)
	}
	return nil
}
