// Package plantest is the naive oracle of the planner stack: the one
// reference every fast path — schedules rebuilt in place, spliced order
// views, dominance-bounded hole searches, shared build prefixes, the
// shared lane, the engine's event loop, the simulator's cursor and
// group splits, the daemon's delivery loop and quote twins — is checked
// against, in lockstep, event by event. It is test support, imported only from _test
// files.
//
// The behavioural contracts it checks:
//
//   - BC-1. Every start the system emits equals the naive earliest fit in
//     policy order: sort the waiting queue with policy.Order, then give
//     each job in turn the first hole from now, on a profile holding the
//     running jobs until their estimated ends, that fits its width for
//     its whole estimate. Header (now, capacity, policy), entry order and
//     all five planned scores match too, the scores bit for bit. A plan
//     built only up to the launch frontier (plan.Base.FrontierInto) is
//     held to this once completed, and before that every job it left
//     unplaced must start after now.
//   - BC-2. A self-tuning step's candidate values, its chosen policy and
//     its chosen schedule equal the naive tuner's bit for bit: every
//     candidate planned as in BC-1, scored by walking the entries,
//     decided by a second instance of the decider from the policy the
//     naive tuner itself holds active.
//   - BC-3. A system forked from saved state — a journal replayed into a
//     fresh scheduler, a quote twin restored from the daemon's published
//     image — continues in lockstep from the restored state: every plan
//     it makes holds to BC-1 and BC-2, its naive tuner taking the
//     restored active policy at the restore, and a replay lands on the
//     state it saved.
//   - BC-4. The event loop follows the tie rules of DESIGN §9: a run of
//     a job set (sim.Run, every sim.RunGroup member, sim.RunParallel),
//     the engine under a Run stream and the daemon under its entry
//     points take the transitions an engine.Observer sees — kind, job,
//     instant, queue depth — and finish the jobs, at the same instants
//     and in the same way, of the naive Machine fed the same events
//     (Simulate for a job set, a Daemon for the daemon); a quote's starts
//     equal the naive Daemon's.
//
// The oracle is slow and obvious on purpose. It shares no mechanism with
// what it checks: a full sort per policy per event, the array-of-structs
// profiletest.Linear, an EarliestFit + Alloc pair per job with every
// search started at now, schedules assembled by hand, no reused storage,
// no views, no witness bounds; an event loop of plain slices, searched
// and spliced, that replans from scratch at every scheduling event. It
// does share policy.Order, the Policy orders themselves, the Planned*
// scores (which walk the entries), core.Metric's dispatch and the
// deciders: those have their own tests (policy.TestOrderMatchesSliceStable,
// plan.TestPlannedMetrics, the exhaustive decider tables).
package plantest

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/profile/profiletest"
	"dynp/internal/rng"
)

// Plan is the naive planner (BC-1).
func Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job, p policy.Policy) *plan.Schedule {
	prof := reserved(capacity, now, running)
	s := &plan.Schedule{Now: now, Capacity: capacity, Policy: p, Entries: []plan.Entry{}}
	for _, j := range policy.Order(p, waiting) {
		start := prof.EarliestFit(now, j.Width, j.Estimate)
		prof.Alloc(start, j.Width, j.Estimate)
		s.Entries = append(s.Entries, plan.Entry{Job: j, Start: start})
	}
	return s
}

// reserved is a profile from now on holding the running jobs until their
// estimated ends.
func reserved(capacity int, now int64, running []plan.Running) *profiletest.Linear {
	prof := profiletest.NewLinear(capacity, now)
	for _, r := range running {
		if rem := r.EstimatedEnd() - now; rem > 0 {
			prof.Alloc(now, r.Job.Width, rem)
		}
	}
	return prof
}

// SameSchedule reports the first difference between two schedules:
// header, entries in order, then every planned score, bit for bit. It
// compares whole plans, so it completes both.
func SameSchedule(got, want *plan.Schedule) error {
	got.Complete()
	want.Complete()
	if got.Now != want.Now || got.Capacity != want.Capacity || got.Policy != want.Policy ||
		len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("header: %d entries at %d on %d under %v, want %d at %d on %d under %v",
			len(got.Entries), got.Now, got.Capacity, got.Policy,
			len(want.Entries), want.Now, want.Capacity, want.Policy)
	}
	for i, w := range want.Entries {
		if got.Entries[i] != w {
			return fmt.Errorf("entry %d: %s at %d, want %s at %d",
				i, got.Entries[i].Job, got.Entries[i].Start, w.Job, w.Start)
		}
	}
	g := [...]float64{got.PlannedSLDwA(), got.PlannedART(), got.PlannedARTwW(), got.PlannedAWT(), got.PlannedMakespan()}
	w := [...]float64{want.PlannedSLDwA(), want.PlannedART(), want.PlannedARTwW(), want.PlannedAWT(), want.PlannedMakespan()}
	if g != w {
		return fmt.Errorf("scores %v, want %v", g, w)
	}
	return nil
}

// Tuner is the naive self-tuner (BC-2). It keeps its own active policy,
// starting — like core.NewSelfTuner — at the first candidate. Shared by
// the drivers of a restarted stream, it is never restarted: a system
// under test restored mid-stream must come back agreeing with it. A
// fresh one behind a fresh lockstep driver instead takes the active
// policy the driver restores (BC-3).
type Tuner struct {
	Candidates []policy.Policy
	Decider    core.Decider // the oracle's own instance
	Metric     core.Metric
	Active     policy.Policy
	Trace      []core.Decision // every step's decision, as core.SelfTuner traces it
}

// NewTuner returns a naive tuner over the paper's candidate set.
func NewTuner(d core.Decider, m core.Metric) *Tuner {
	return &Tuner{Candidates: policy.Candidates, Decider: d, Metric: m, Active: policy.Candidates[0]}
}

// Step performs one naive self-tuning step and returns the candidate
// values and the chosen policy's schedule. The chosen policy becomes
// active, and a core.BacklogDecider hears how many jobs of that schedule
// do not start now.
func (t *Tuner) Step(now int64, capacity int, running []plan.Running, waiting []*job.Job) ([]float64, *plan.Schedule) {
	refs := make([]*plan.Schedule, len(t.Candidates))
	values := make([]float64, len(t.Candidates))
	for i, p := range t.Candidates {
		refs[i] = Plan(now, capacity, running, waiting, p)
		values[i] = t.Metric.Score(refs[i])
	}
	old := t.Active
	t.Active = t.Decider.Decide(t.Active, t.Candidates, values)
	t.Trace = append(t.Trace, core.Decision{Time: now, Old: old, Chosen: t.Active, Values: values})
	chosen := refs[slices.Index(t.Candidates, t.Active)]
	if b, ok := t.Decider.(core.BacklogDecider); ok {
		backlog := 0
		for _, e := range chosen.Entries {
			if e.Start != now {
				backlog++
			}
		}
		b.Backlog(backlog)
	}
	return values, chosen
}

// twin returns a naive tuner that goes on from t's state without moving
// it: the same active policy, and a decider of its own, resolved by name
// and holding t's decider's saved state when that decider keeps any.
func (t *Tuner) twin() *Tuner {
	twin := &Tuner{Candidates: t.Candidates, Decider: t.Decider, Metric: t.Metric, Active: t.Active}
	if sd, ok := t.Decider.(core.StatefulDecider); ok {
		d, err := core.NewDecider(sd.Name())
		var data []byte
		if err == nil {
			data, err = sd.SaveState()
		}
		if err == nil {
			err = d.(core.StatefulDecider).RestoreState(data)
		}
		if err != nil {
			panic(fmt.Sprintf("plantest: twin of decider %s: %v", sd.Name(), err))
		}
		twin.Decider = d
	}
	return twin
}

// Lanes tallies the plans a lockstep driver checked: by how far they
// were built — stopped at the launch frontier with jobs left unplaced, or
// placed whole — and how many of them were handed a job rejoining the
// queue out of order: one submitted before the previous plan's now yet
// absent from that plan's queue, which is what the engine's withholding
// of jobs too wide for a failed machine makes. One count outlives the
// drivers of a stream, which restarts replace.
type Lanes struct{ Rejoined, Stopped, Whole int }

// lockstep is the self-checking driver: it plans with the wrapped driver
// and fails the test unless the result equals the oracle's.
type lockstep struct {
	engine.Driver
	t     testing.TB
	live  *core.SelfTuner // the wrapped driver's tuner; nil checks BC-1 only
	ref   *Tuner
	lanes *Lanes

	prev    []*job.Job // the queue the previous plan was handed
	prevNow int64
	planned bool // whether there was a previous plan
}

// statefulLockstep carries a wrapped self-tuning driver's decision state
// (sim.DynP) as the value checkpoints, journal recovery and quote twins
// restore.
type statefulLockstep struct {
	*lockstep
	core.Tuned
}

// SetTunerState restores the wrapped driver, and the naive tuner takes
// the active policy and decider state it restored (BC-3).
func (d *statefulLockstep) SetTunerState(st core.TunerState) error {
	if err := d.Tuned.SetTunerState(st); err != nil {
		return err
	}
	if d.live != nil {
		d.ref.Active = d.live.Active()
		if sd, ok := d.live.Decider().(core.StatefulDecider); ok {
			data, err := sd.SaveState()
			if err == nil {
				err = d.ref.Decider.(core.StatefulDecider).RestoreState(data)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Lockstep wraps a one-policy driver (BC-1 against its ActivePolicy).
func Lockstep(t testing.TB, d engine.Driver, lanes *Lanes) engine.Driver {
	return TunerLockstep(t, d, nil, nil, lanes)
}

// TunerLockstep wraps a self-tuning driver whose tuner is live (BC-2
// against ref).
func TunerLockstep(t testing.TB, d engine.Driver, live *core.SelfTuner, ref *Tuner, lanes *Lanes) engine.Driver {
	l := &lockstep{Driver: d, t: t, live: live, ref: ref, lanes: lanes}
	if td, tuned := d.(core.Tuned); tuned {
		return &statefulLockstep{l, td}
	}
	return l
}

func (d *lockstep) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	if d.planned && slices.ContainsFunc(waiting, func(j *job.Job) bool {
		return j.Submit < d.prevNow && !slices.Contains(d.prev, j)
	}) {
		d.lanes.Rejoined++
	}
	d.prev, d.prevNow, d.planned = append(d.prev[:0], waiting...), now, true
	got := d.Driver.Plan(now, capacity, running, waiting)
	placed := len(got.Entries) // before anything completes it
	if placed < len(waiting) {
		d.lanes.Stopped++
	} else {
		d.lanes.Whole++
	}
	where := func() string {
		return fmt.Sprintf("%s at t=%d (%d running, %d waiting)", d.Name(), now, len(running), len(waiting))
	}
	var want *plan.Schedule
	if d.live == nil {
		want = Plan(now, capacity, running, waiting, d.ActivePolicy())
	} else {
		old := d.ref.Active
		var values []float64
		values, want = d.ref.Step(now, capacity, running, waiting)
		dec, _ := d.live.LastDecision()
		if dec.Time != now || dec.Old != old || !slices.Equal(dec.Values, values) {
			d.t.Fatalf("%s: decided at t=%d from %v on %v, want from %v on %v",
				where(), dec.Time, dec.Old, dec.Values, old, values)
		}
		if dec.Chosen != want.Policy || d.live.Active() != want.Policy {
			d.t.Fatalf("%s from %v on %v: chose %v (active %v), want %v",
				where(), old, values, dec.Chosen, d.live.Active(), want.Policy)
		}
	}
	// The frontier rule: a job the build left unplaced never starts now.
	// Read off the oracle before got is completed; SameSchedule then
	// holds the placed prefix and the completion to the oracle's plan.
	for _, e := range want.Entries[min(placed, len(want.Entries)):] {
		if e.Start == now {
			d.t.Fatalf("%s: the build stopped after %d placements, but %s starts now",
				where(), placed, e.Job)
		}
	}
	if err := SameSchedule(got, want); err != nil {
		d.t.Fatalf("%s: %v\n got %v\nwant %v", where(), err, got.Entries, want.Entries)
	}
	return got
}

// Stream is the seeded random event stream (500 events) of the lockstep
// tests.
func Stream(seed uint64) []byte {
	r := rng.New(100 + seed)
	data := make([]byte, 2*500)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

// SubmitShape decodes a stream argument into a job's width and estimate:
// widths are powers of two up to 16, estimates come from a four-rung
// ladder with a doubled rung, so policy keys tie heavily.
func SubmitShape(arg byte) (width int, estimate int64) {
	return 1 << (arg % 5), []int64{30, 30, 600, 3600}[int(arg/5)%4]
}

// Capacity is the machine size the streams are drawn for.
const Capacity = 16

// Run interprets data as an event stream — two bytes an event — against
// an engine planning with the self-checking driver newDriver returns,
// replanning and checking the engine's invariants after every event, and
// holds the engine's transitions to those of a naive Machine planning
// with oracle that takes the same events (BC-4). The streams reach
// everything that changes what Plan is handed: submissions with heavily
// tied keys, clock advances that fire kills at the estimate and planned
// starts, early completions, cancellations, an ID cancelled and
// re-submitted as a new job within one instant, processor failures that
// make the engine withhold jobs too wide for what is left (they rejoin
// the planned queue out of order once processors return) or drain the
// machine entirely, and a checkpoint restored into a fresh engine and
// driver — whose first plan builds its order views from the restored
// queue and which, for a core.Tuned driver, takes the old driver's
// TunerState through the JSON a checkpoint stores into SetTunerState. A
// restore is no event to the oracle.
func Run(t testing.TB, newDriver func() engine.Driver, oracle Step, data []byte) {
	driver := newDriver()
	var rec Recorder
	eng := engine.New(Capacity, driver, 0, engine.WithObserver(&rec))
	m := NewMachine(Capacity, oracle, 0)
	submit := func(id job.ID, arg byte) {
		width, est := SubmitShape(arg)
		j := &job.Job{ID: id, Submit: eng.Now(), Width: width, Estimate: est, Runtime: est}
		eng.Submit(j)
		m.Submit(j)
	}
	var nextID job.ID
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 8 {
		case 0, 1, 2:
			nextID++
			submit(nextID, arg)
		case 3:
			to := eng.Now() + 7*int64(arg)
			if err := eng.AdvanceTo(to, false); err != nil {
				t.Fatal(err)
			}
			eng.JumpTo(to)
			m.AdvanceTo(to, false)
			m.Now = to
		case 4:
			if running := eng.Running(); len(running) > 0 {
				id := running[int(arg)%len(running)].Job.ID
				eng.Finish(id, engine.FinishCompleted)
				m.Finish(id, engine.FinishCompleted)
			}
		case 5:
			if waiting := eng.Waiting(); len(waiting) > 0 {
				id := waiting[int(arg)%len(waiting)].ID
				eng.CancelWaiting(id)
				m.CancelWaiting(id)
				if arg >= 128 {
					submit(id, arg)
				}
			}
		case 6:
			if eff := eng.Effective(); arg%2 == 0 && eff > 0 {
				n := 1 + int(arg/2)%eff
				eng.FailProcs(n)
				m.FailProcs(n)
			} else if failed := eng.FailedProcs(); failed > 0 {
				n := 1 + int(arg/2)%failed
				eng.RestoreProcs(n)
				m.RestoreProcs(n)
			}
		case 7:
			st := engine.State{Now: eng.Now(), Failed: eng.FailedProcs(),
				Waiting: slices.Clone(eng.Waiting()), Running: slices.Clone(eng.Running())}
			old := driver
			driver = newDriver() // a restart: only saved state survives the old driver
			eng = engine.New(Capacity, driver, 0, engine.WithObserver(&rec))
			if err := eng.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			if td, ok := old.(core.Tuned); ok {
				// Through the JSON a checkpoint stores, as journal
				// recovery reads it.
				var saved core.TunerState
				st, err := td.TunerState()
				var data []byte
				if err == nil {
					data, err = json.Marshal(st)
				}
				if err == nil {
					err = json.Unmarshal(data, &saved)
				}
				if err == nil {
					err = driver.(core.Tuned).SetTunerState(saved)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if got, want := driver.ActivePolicy(), old.ActivePolicy(); got != want {
				t.Fatalf("restart restored active policy %v, want %v", got, want)
			}
		}
		if err := eng.Replan(); err != nil {
			t.Fatal(err)
		}
		m.Replan()
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("after event %d (op %d): %v", i/2, op%8, err)
		}
		if err := SameTransitions(rec.Transitions, m.Transitions); err != nil {
			t.Fatalf("after event %d (op %d): the engine parts from the naive machine: %v", i/2, op%8, err)
		}
	}
}
