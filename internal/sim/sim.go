// Package sim is the discrete event simulator of a planning-based resource
// management system. The machine is a space-shared pool of identical
// processors; scheduling events are job submissions and job completions; at
// every event the active scheduler driver recomputes the full schedule and
// the engine starts all jobs whose planned start time equals the current
// simulation time.
//
// Jobs run for their actual run time, which is at most their estimate.
// Because running jobs reserve their processors until the estimated end,
// the availability profile is flat until the earliest estimated end of a
// running job, so the first planned start after the current time falls at
// that end or later — and that job's actual completion event fires no
// later than its estimated end. An event therefore always comes before the
// first future start and replans every later one, so starts are always
// triggered by an event and the event loop needs no additional timers.
//
// The scheduling mechanics — machine state, replan-and-launch, finish
// transitions — live in internal/engine, shared with the online RMS
// (internal/rms). Run is a thin virtual-clock harness over that engine:
// it reads submissions off the job set in order and keeps the running
// jobs' completions in a queue, jumps the engine's clock to each
// instant, applies the instant's events, and triggers one shared
// replanning step. RunGroup drives the same event loop for several
// drivers at once, sharing one engine among drivers over the same
// candidate policies for as long as they launch the same jobs
// (group.go).
package sim

import (
	"fmt"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/eventq"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// Driver plans the waiting queue at every scheduling event. It is the
// engine's planning interface, implemented here by Static (one fixed
// policy), DynP (the self-tuning dynP scheduler of internal/core) and
// EASY (aggressive backfilling).
type Driver = engine.Driver

// Static is a Driver that always uses a single policy — the paper's basic
// scheduling approach used as the baseline. It plans on the same
// core.Lane as the self-tuner, run over one policy, and only up to the
// launch frontier (core.Lane.BuildFrontier): the schedule Plan returns
// holds every entry that starts now, and plan.Schedule.Complete places
// the rest for a reader of the whole plan. Changing Policy between Plans
// is legal: the next Plan starts a new lane under the new policy.
type Static struct {
	Policy policy.Policy

	lane   *core.Lane
	laneOf policy.Policy // the policy lane plans under
}

// Name implements Driver.
func (s *Static) Name() string { return s.Policy.Name() }

// Plan implements Driver. The lane is made at first use, so that the
// literal &Static{Policy: p} stays the way to make a driver.
func (s *Static) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	if s.lane == nil || s.laneOf != s.Policy {
		s.lane, s.laneOf = core.NewLane(s.Policy), s.Policy
	}
	s.lane.BuildFrontier(now, capacity, running, waiting)
	return s.lane.Keep(0)
}

// ActivePolicy implements Driver.
func (s *Static) ActivePolicy() policy.Policy { return s.Policy }

// Record is the outcome of one job.
type Record struct {
	Job    *job.Job
	Start  int64
	Finish int64 // Start + actual run time
}

// Wait returns the job's waiting time.
func (r Record) Wait() int64 { return r.Start - r.Job.Submit }

// Response returns the job's response time (wait + run).
func (r Record) Response() int64 { return r.Finish - r.Job.Submit }

// Result is the outcome of one simulation run.
type Result struct {
	Set       *job.Set
	Scheduler string
	Records   []Record // in completion order
	Makespan  int64    // last completion time
	First     int64    // first submission time
	Events    int      // scheduling events processed

	// PolicyTime maps each policy to the simulated time it was active,
	// weighted by the span between scheduling events; the tail from the
	// last scheduling event to the makespan is attributed to the policy
	// active then, so the spans always sum to Makespan - First. For
	// static drivers it contains a single entry.
	PolicyTime map[policy.Policy]int64
}

// event is a queued completion: the job and the instant it started.
type event struct {
	job   *job.Job
	start int64
}

// runConfig collects the per-run options.
type runConfig struct {
	verify    bool
	observers []engine.Observer
}

// Option configures a simulation run.
type Option func(*runConfig)

// WithVerify makes the engine verify every schedule against the current
// machine state (slow; used by tests and debugging).
func WithVerify() Option { return func(c *runConfig) { c.verify = true } }

// WithObserver attaches an observer to the run's scheduling engine: it
// receives every transition (submissions, starts, completions and one
// EventPlan per scheduling event) as structured engine.Event values.
func WithObserver(o engine.Observer) Option {
	return func(c *runConfig) { c.observers = append(c.observers, o) }
}

// WithQueueProbe registers a callback invoked after every scheduling event
// with the current time and waiting-queue length, for queue-dynamics
// analyses. It is an adapter over WithObserver.
func WithQueueProbe(probe func(now int64, queued int)) Option {
	return WithObserver(engine.ObserverFunc(func(ev engine.Event) {
		if ev.Kind == engine.EventPlan {
			probe(ev.Time, ev.Queued)
		}
	}))
}

// Run simulates the job set under the given scheduler driver and returns
// the per-job records and run statistics. The job set must validate. It
// is the one-driver case of RunGroup's event loop.
func Run(set *job.Set, driver Driver, opts ...Option) (*Result, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	res := newResult(set, driver)
	if err := simulate(newTrajectory(set, []member{{driver, res}}, driver, cfg)); err != nil {
		return nil, err
	}
	return res, nil
}

// newResult returns the empty result of driver's run over set.
func newResult(set *job.Set, driver Driver) *Result {
	res := &Result{
		Set:        set,
		Scheduler:  driver.Name(),
		PolicyTime: make(map[policy.Policy]int64),
	}
	if len(set.Jobs) > 0 {
		res.First = set.Jobs[0].Submit
	}
	return res
}

// member is one driver of a trajectory and the result it accumulates.
type member struct {
	driver Driver
	res    *Result
}

// trajectory is one history of the machine: an engine, the submissions
// still to come, the running jobs' completions and the records of the
// jobs finished so far. Every member's launches have been the same along
// it; a group splits it where they differ (group.go), handing each part
// a copy.
type trajectory struct {
	set      *job.Set
	eng      *engine.Engine
	next     int                 // set.Jobs[next:] are still to be submitted
	events   eventq.Queue[event] // completions of the running jobs
	records  []Record            // in completion order
	makespan int64
	last     int64 // the previous scheduling event's instant
	members  []member
	group    *group // the engine's driver when it plans for a group, else nil

	// resume marks a trajectory split at the current instant: its
	// events are applied, its replan is still to come.
	resume bool
}

// newTrajectory returns the trajectory of set from its first submission,
// its engine planning with driver.
func newTrajectory(set *job.Set, members []member, driver Driver, cfg runConfig) *trajectory {
	t := &trajectory{
		set:     set,
		records: make([]Record, 0, len(set.Jobs)),
		last:    members[0].res.First,
		members: members,
	}
	t.group, _ = driver.(*group)
	t.eng = engine.New(set.Machine, driver, t.last, t.engineOptions(cfg)...)
	return t
}

// engineOptions configures the trajectory's engine: the engine launches
// jobs, and the harness turns every launch into the completion event the
// virtual clock already knows about.
func (t *trajectory) engineOptions(cfg runConfig) []engine.Option {
	opts := []engine.Option{
		engine.WithStrictLaunch(),
		engine.WithHooks(engine.Hooks{
			Started: func(j *job.Job, now int64) {
				t.events.Push(now+j.Runtime, 0, event{j, now})
			},
		}),
	}
	if cfg.verify {
		opts = append(opts, engine.WithVerify())
	}
	for _, o := range cfg.observers {
		opts = append(opts, engine.WithObserver(o))
	}
	return opts
}

// simulate runs t to its end, and every trajectory split off it to
// theirs, filling the members' results.
func simulate(t *trajectory) error {
	for work := []*trajectory{t}; len(work) > 0; {
		t, work = work[len(work)-1], work[:len(work)-1]
		if err := t.run(&work); err != nil {
			return err
		}
	}
	return nil
}

// run is the event loop. It advances the trajectory to its end; where a
// group's members launch differently it splits, continuing with one part
// and appending the others to work.
func (t *trajectory) run(work *[]*trajectory) error {
	for t.resume || t.events.Len() > 0 || t.next < len(t.set.Jobs) {
		if !t.resume {
			t.advance(t.nextInstant())
		}
		t.resume = false

		// One scheduling event: recompute the full schedule and launch
		// the jobs planned to start right now.
		if err := t.eng.Replan(); err != nil {
			return err
		}
		if t.group != nil && t.group.diverged != nil {
			if err := t.split(work); err != nil {
				return err
			}
			continue
		}
		for _, m := range t.members {
			m.res.Events++
		}
	}

	// The last completion is itself a scheduling event, so this tail span
	// is empty today: the makespan only advances on finish events, every
	// finish is processed by an iteration above, and that iteration's
	// span attribution already reaches now == makespan. The guard is kept
	// so PolicyTime stays total by construction should the loop ever end
	// before the makespan; TestPolicyTimeSpansTotal asserts the totality
	// invariant either way.
	if t.makespan > t.last {
		t.attribute(t.makespan)
	}

	if len(t.records) != len(t.set.Jobs) {
		return fmt.Errorf("sim: %d of %d jobs completed", len(t.records), len(t.set.Jobs))
	}
	for i, m := range t.members {
		m.res.Records, m.res.Makespan = t.records, t.makespan
		if i > 0 {
			m.res.Records = append(make([]Record, 0, len(t.records)), t.records...)
		}
	}
	return nil
}

// nextInstant returns the instant of the next event: the earlier of the
// next submission and the next completion. The caller guarantees there
// is one.
func (t *trajectory) nextInstant() int64 {
	head, ok := t.events.Peek()
	if t.next < len(t.set.Jobs) {
		if sub := t.set.Jobs[t.next].Submit; !ok || sub < head.Time {
			return sub
		}
	}
	return head.Time
}

// advance moves the trajectory to the instant now and applies every
// event at it: first the completions, which free processors, in the
// order the jobs were started; then the submissions, which extend the
// queue, in set order (job.Set.Validate guarantees it sorts by
// submission time).
func (t *trajectory) advance(now int64) {
	if now > t.last {
		t.attribute(now)
	}
	t.eng.JumpTo(now)
	for ev, ok := t.events.PopIf(now); ok; ev, ok = t.events.PopIf(now) {
		j := ev.Payload.job
		if !t.eng.Finish(j.ID, engine.FinishCompleted) {
			panic(fmt.Sprintf("sim: finish event for %s which is not running", j))
		}
		t.records = append(t.records, Record{
			Job:    j,
			Start:  ev.Payload.start,
			Finish: now,
		})
		if now > t.makespan {
			t.makespan = now
		}
	}
	for ; t.next < len(t.set.Jobs) && t.set.Jobs[t.next].Submit == now; t.next++ {
		t.eng.Submit(t.set.Jobs[t.next])
	}
}

// attribute credits the span since the previous event to the policy each
// member had active over it.
func (t *trajectory) attribute(now int64) {
	for _, m := range t.members {
		m.res.PolicyTime[m.driver.ActivePolicy()] += now - t.last
	}
	t.last = now
}
