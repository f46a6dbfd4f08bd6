package plantest

import (
	"fmt"
	"slices"
	"strings"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// This file is the naive event loop (BC-4): a machine that replans from
// scratch through a Step at every scheduling event and applies the tie
// rules of DESIGN §9 in the most obvious way. It shares no code with
// internal/engine or internal/sim; it borrows only their vocabulary
// (engine.EventKind, engine.FinishState) so that what it emits compares
// directly with what an engine.Observer sees.

// A Step plans one scheduling event: Fixed under one policy, EASY, or a
// naive Tuner's self-tuning step. Its schedule holds every waiting job.
type Step interface {
	Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule
}

// Fixed is the naive one-policy step (sim.Static's reference).
type Fixed struct{ Policy policy.Policy }

// Plan implements Step.
func (f Fixed) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	return Plan(now, capacity, running, waiting, f.Policy)
}

// EASY is the naive aggressive backfiller (sim.EASY's reference): in
// Base order, the head takes its earliest fit; every later job starts now
// if it fits now beside what is placed so far, else it waits; the waiting
// ones are placed after all that, where they bind nothing.
type EASY struct{ Base policy.Policy }

// Plan implements Step.
func (e EASY) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	prof := reserved(capacity, now, running)
	s := &plan.Schedule{Now: now, Capacity: capacity, Policy: e.Base, Entries: []plan.Entry{}}
	var rejected []*job.Job
	for i, j := range policy.Order(e.Base, waiting) {
		if i == 0 || prof.FitsAt(now, j.Width, j.Estimate) {
			s.Entries = append(s.Entries, plan.Entry{Job: j, Start: prof.Place(now, j.Width, j.Estimate)})
		} else {
			rejected = append(rejected, j)
		}
	}
	for _, j := range rejected {
		s.Entries = append(s.Entries, plan.Entry{Job: j, Start: prof.Place(now, j.Width, j.Estimate)})
	}
	return s
}

// Plan implements Step: one naive self-tuning step.
func (t *Tuner) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	_, s := t.Step(now, capacity, running, waiting)
	return s
}

// Transition is one engine transition as an engine.Observer sees it, cut
// to what the oracle specifies: its kind, its job (0 for none), the
// instant and the number of waiting jobs after it.
type Transition struct {
	Kind   engine.EventKind
	Job    job.ID
	Time   int64
	Queued int
}

func (tr Transition) String() string {
	return fmt.Sprintf("%v %d@%d q%d", tr.Kind, tr.Job, tr.Time, tr.Queued)
}

// Log joins transitions in their String form, separated by ", ": the
// form in which the tie rules' tests write their logs by hand.
func Log(trs []Transition) string {
	out := make([]string, len(trs))
	for i, tr := range trs {
		out[i] = tr.String()
	}
	return strings.Join(out, ", ")
}

// Recorder is an engine.Observer that keeps the transitions it sees.
type Recorder struct{ Transitions []Transition }

// Observe implements engine.Observer.
func (r *Recorder) Observe(ev engine.Event) {
	tr := Transition{Kind: ev.Kind, Time: ev.Time, Queued: ev.Queued}
	if ev.Job != nil {
		tr.Job = ev.Job.ID
	}
	r.Transitions = append(r.Transitions, tr)
}

// SameTransitions reports the first difference between two transition
// sequences.
func SameTransitions(got, want []Transition) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("transition %d: %v, want %v (after %v)", i, got[i], want[i], got[max(0, i-4):i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d transitions, want %d; the first extra: %v",
			len(got), len(want), slices.Concat(got[min(len(got), len(want)):], want[min(len(got), len(want)):])[0])
	}
	return nil
}

// Record is one finished job: the instants it started and left the
// machine, and how it left.
type Record struct {
	Job           *job.Job
	Start, Finish int64
	State         engine.FinishState
}

// Machine is the naive machine. Its fields are its whole state; the
// methods named like the engine's apply one transition each, in the
// most obvious way.
type Machine struct {
	Capacity, Failed int
	Now              int64
	Waiting          []*job.Job     // submission order
	Running          []plan.Running // start order
	Records          []Record       // finish order
	Recorder                        // every transition so far
	InForce          []plan.Entry   // the last plan's entries, nil when there is none

	step   Step
	plans  int           // scheduling events
	active policy.Policy // the policy of the last plan
}

// NewMachine returns an idle machine at time start planning with step.
func NewMachine(capacity int, step Step, start int64) *Machine {
	return &Machine{Capacity: capacity, Now: start, step: step}
}

func (m *Machine) emit(k engine.EventKind, j *job.Job) {
	m.Observe(engine.Event{Kind: k, Time: m.Now, Job: j, Queued: len(m.Waiting)})
}

// Submit queues j behind every waiting job.
func (m *Machine) Submit(j *job.Job) {
	m.Waiting = append(m.Waiting, j)
	m.emit(engine.EventSubmit, j)
}

// CancelWaiting withdraws a waiting job.
func (m *Machine) CancelWaiting(id job.ID) bool {
	i := slices.IndexFunc(m.Waiting, func(j *job.Job) bool { return j.ID == id })
	if i < 0 {
		return false
	}
	j := m.Waiting[i]
	m.Waiting = slices.Delete(m.Waiting, i, i+1)
	m.emit(engine.EventCancel, j)
	return true
}

// Finish takes a running job off the machine.
func (m *Machine) Finish(id job.ID, st engine.FinishState) bool {
	i := slices.IndexFunc(m.Running, func(r plan.Running) bool { return r.Job.ID == id })
	if i < 0 {
		return false
	}
	r := m.Running[i]
	m.Running = slices.Delete(m.Running, i, i+1)
	m.Records = append(m.Records, Record{Job: r.Job, Start: r.Start, Finish: m.Now, State: st})
	m.emit([...]engine.EventKind{engine.EventFinish, engine.EventKill, engine.EventJobFail}[st], r.Job)
	return true
}

func (m *Machine) used() int {
	n := 0
	for _, r := range m.Running {
		n += r.Job.Width
	}
	return n
}

// FailProcs takes n processors out of service, then kills the running
// job started last (of those, the highest ID) until the rest fit.
func (m *Machine) FailProcs(n int) {
	m.Failed += n
	m.emit(engine.EventProcsFail, nil)
	for m.used() > m.Capacity-m.Failed {
		v := m.Running[0]
		for _, r := range m.Running[1:] {
			if r.Start > v.Start || r.Start == v.Start && r.Job.ID > v.Job.ID {
				v = r
			}
		}
		m.Finish(v.Job.ID, engine.FinishFailed)
	}
}

// RestoreProcs returns n failed processors to service.
func (m *Machine) RestoreProcs(n int) {
	m.Failed -= n
	m.emit(engine.EventProcsRestore, nil)
}

// KillExpired kills, in start order, every running job whose estimate
// has run out.
func (m *Machine) KillExpired() bool {
	killed := false
	for _, r := range slices.Clone(m.Running) {
		if r.EstimatedEnd() <= m.Now {
			killed = m.Finish(r.Job.ID, engine.FinishKilled) || killed
		}
	}
	return killed
}

// Replan is one scheduling event. With no processor up there is no plan.
// Otherwise the step plans the waiting jobs that fit the processors up,
// in submission order, and every entry due now starts, in entry order.
func (m *Machine) Replan() {
	m.plans++
	m.InForce = nil
	if eff := m.Capacity - m.Failed; eff >= 1 {
		var planned []*job.Job
		for _, j := range m.Waiting {
			if j.Width <= eff {
				planned = append(planned, j)
			}
		}
		s := m.step.Plan(m.Now, eff, slices.Clone(m.Running), planned)
		m.InForce, m.active = slices.Clone(s.Entries), s.Policy
		for _, e := range m.InForce {
			if i := slices.Index(m.Waiting, e.Job); i >= 0 && e.Start == m.Now {
				m.Waiting = slices.Delete(m.Waiting, i, i+1)
				m.Running = append(m.Running, plan.Running{Job: e.Job, Start: m.Now})
				m.emit(engine.EventStart, e.Job)
			}
		}
	}
	m.emit(engine.EventPlan, nil)
}

// nextAction is the earliest instant at which the machine acts on its
// own: a running job's estimate runs out.
func (m *Machine) nextAction() (int64, bool) {
	if len(m.Running) == 0 {
		return 0, false
	}
	var ends []int64
	for _, r := range m.Running {
		ends = append(ends, r.EstimatedEnd())
	}
	return max(m.Now, slices.Min(ends)), true
}

// AdvanceTo acts on its own up to to — strictly before it when exclusive
// — one instant at a time: the jobs whose estimates ran out are killed,
// and a replan follows. The clock stays at the last such instant.
func (m *Machine) AdvanceTo(to int64, exclusive bool) {
	for {
		next, ok := m.nextAction()
		if !ok || next > to || exclusive && next == to {
			return
		}
		m.Now = next
		m.KillExpired()
		m.Replan()
	}
}

// batch is one instant of outside events, as Deliver takes it: the
// machine acts on its own up to the instant, then the completions end in
// the order given, the jobs whose estimates ran out are killed, the
// submissions queue in order, and one replan follows.
func (m *Machine) batch(t int64, done []job.ID, subs []*job.Job) {
	m.AdvanceTo(t, true)
	m.Now = t
	for _, id := range done {
		m.Finish(id, engine.FinishCompleted)
	}
	m.KillExpired()
	for _, j := range subs {
		m.Submit(j)
	}
	m.Replan()
}

// Result is what Simulate emits.
type Result struct {
	Records     []Record // finish order
	Transitions []Transition
	Events      int // scheduling events
	Makespan    int64
	PolicyTime  map[policy.Policy]int64 // how long each policy was active
}

// Simulate runs a job set, as sim.Run reads it, through the naive
// machine. Every instant at which a job is submitted or runs out its run
// time is one batch: the jobs ending then, in start order, and the jobs
// submitted then, in set order.
func Simulate(set *job.Set, step Step) *Result {
	var first int64
	if len(set.Jobs) > 0 {
		first = set.Jobs[0].Submit
	}
	m := NewMachine(set.Machine, step, first)
	res := &Result{PolicyTime: make(map[policy.Policy]int64)}
	for next := 0; next < len(set.Jobs) || len(m.Running) > 0; {
		var t int64 = -1
		if next < len(set.Jobs) {
			t = set.Jobs[next].Submit
		}
		for _, r := range m.Running {
			if end := r.Start + r.Job.Runtime; t < 0 || end < t {
				t = end
			}
		}
		if t > m.Now {
			res.PolicyTime[m.active] += t - m.Now
		}
		var done []job.ID
		for _, r := range m.Running {
			if r.Start+r.Job.Runtime == t {
				done = append(done, r.Job.ID)
			}
		}
		var subs []*job.Job
		for ; next < len(set.Jobs) && set.Jobs[next].Submit == t; next++ {
			subs = append(subs, set.Jobs[next])
		}
		m.batch(t, done, subs)
	}
	for _, r := range m.Records {
		res.Makespan = max(res.Makespan, r.Finish)
	}
	res.Records, res.Transitions, res.Events = m.Records, m.Transitions, m.plans
	return res
}

// Daemon is the naive online scheduler: the daemon's entry points over a
// Machine. A job gets the next ID when it arrives; its run time is its
// estimate, at which it is killed unless completed first. Requests are
// taken valid: the oracle rejects nothing.
type Daemon struct {
	*Machine
	NextID job.ID
}

// NewDaemon returns a daemon that has planned once, as a daemon does
// when it is made, before anything can observe it.
func NewDaemon(capacity int, step Step, start int64) *Daemon {
	d := &Daemon{Machine: NewMachine(capacity, step, start)}
	d.Replan()
	d.Transitions, d.plans = nil, 0
	return d
}

func (d *Daemon) arrive(at int64, sh Shape) *job.Job {
	d.NextID++
	return &job.Job{ID: d.NextID, Submit: at, Width: sh.Width, Estimate: sh.Estimate, Runtime: sh.Estimate}
}

// Shape is a submitted job's width and estimate.
type Shape struct {
	Width    int
	Estimate int64
}

// Deliver is one batch at instant t.
func (d *Daemon) Deliver(t int64, done []job.ID, subs ...Shape) {
	jobs := make([]*job.Job, len(subs))
	for i, sh := range subs {
		jobs[i] = d.arrive(t, sh)
	}
	d.batch(t, done, jobs)
}

// Advance moves the clock to to, the machine acting on its own on the
// way. It does not replan.
func (d *Daemon) Advance(to int64) {
	d.AdvanceTo(to, false)
	d.Now = to
}

// The interactive entry points: one change at the current instant, then
// one replan.

func (d *Daemon) SubmitNow(sh Shape) { d.Submit(d.arrive(d.Now, sh)); d.Replan() }
func (d *Daemon) Complete(id job.ID) { d.Finish(id, engine.FinishCompleted); d.Replan() }
func (d *Daemon) Cancel(id job.ID)   { d.CancelWaiting(id); d.Replan() }
func (d *Daemon) Fail(n int)         { d.FailProcs(n); d.Replan() }
func (d *Daemon) Restore(n int)      { d.RestoreProcs(n); d.Replan() }

// Quote returns the instants at which count jobs of one shape, submitted
// now one after the other, would start if nothing else arrived: on a
// copy of the machine without a plan in force, each submission replans
// and the copy then acts on its own until all of them started. A job
// wider than the processors up never starts (-1). The copy of a tuner
// is its twin: it goes on from the tuner's active policy and decider
// state and leaves them as they are.
func (d *Daemon) Quote(sh Shape, count int) []int64 {
	twin := d.step
	if t, ok := twin.(*Tuner); ok {
		twin = t.twin()
	}
	starts := make([]int64, count)
	for i := range starts {
		starts[i] = -1
	}
	if sh.Width > d.Capacity-d.Failed {
		return starts
	}
	m := NewMachine(d.Capacity, twin, d.Now)
	m.Failed, m.Waiting, m.Running = d.Failed, slices.Clone(d.Waiting), slices.Clone(d.Running)
	for i := range count {
		m.Submit(&job.Job{ID: d.NextID + 1 + job.ID(i), Submit: d.Now, Width: sh.Width, Estimate: sh.Estimate, Runtime: sh.Estimate})
		m.Replan()
	}
	for {
		n := 0
		for _, tr := range m.Transitions {
			if i := int(tr.Job-d.NextID) - 1; tr.Kind == engine.EventStart && i >= 0 && i < count {
				starts[i], n = tr.Time, n+1
			}
		}
		next, ok := m.nextAction()
		if n == count || !ok {
			return starts
		}
		m.AdvanceTo(next, false)
	}
}
