package sim

import (
	"slices"
	"testing"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/workload"
)

// lifetimeProbe wraps a driver and holds what the engine holds: the
// schedule the last Plan returned, completed, next to a copy of its
// entries taken at that moment. check compares the two, so calling it at
// every engine transition and at the instant the next Plan is entered
// proves the engine.Driver lifetime rule from the engine's side. It forwards
// engine.QueueTracker so the order views stay engaged.
type lifetimeProbe struct {
	inner Driver
	t     *testing.T

	held  *plan.Schedule
	want  []plan.Entry
	plans int
}

func (p *lifetimeProbe) check(when string) {
	if p.held == nil {
		return
	}
	if p.held.Released() {
		p.t.Fatalf("%s, %s: the plan in force (t=%d) has been released", p.inner.Name(), when, p.held.Now)
	}
	if !slices.Equal(p.held.Entries, p.want) {
		p.t.Fatalf("%s, %s: the plan in force (t=%d) changed under the engine", p.inner.Name(), when, p.held.Now)
	}
}

func (p *lifetimeProbe) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	p.check("entering the next Plan")
	s := p.inner.Plan(now, capacity, running, waiting)
	p.plans++
	// The probe reads the whole plan, as Verify will: a static driver's
	// frontier schedule is completed before the snapshot.
	s.Complete()
	p.held, p.want = s, slices.Clone(s.Entries)
	p.check("returned by Plan")
	return s
}

func (p *lifetimeProbe) Name() string                { return p.inner.Name() }
func (p *lifetimeProbe) ActivePolicy() policy.Policy { return p.inner.ActivePolicy() }

func (p *lifetimeProbe) NoteSubmit(j *job.Job) {
	if qt, ok := p.inner.(engine.QueueTracker); ok {
		qt.NoteSubmit(j)
	}
}

func (p *lifetimeProbe) NoteRemove(j *job.Job) {
	if qt, ok := p.inner.(engine.QueueTracker); ok {
		qt.NoteRemove(j)
	}
}

// TestScheduleValidUntilNextPlan drives every kind of driver through an
// engine and asserts the lifetime rule of engine.Driver.Plan: plan N is
// live and unchanged at every transition up to the instant Plan N+1 is
// entered, and the plan in force at the end of the run was never
// released. A release issued too early would trip Released (or, had the
// storage been reused already, the entry comparison); a second release of
// one schedule panics.
func TestScheduleValidUntilNextPlan(t *testing.T) {
	sets, err := workload.KTH.GenerateSets(1, 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	set := sets[0].Shrink(0.8)

	run := func(inner Driver) *lifetimeProbe {
		p := &lifetimeProbe{inner: inner, t: t}
		observe := WithObserver(engine.ObserverFunc(func(ev engine.Event) { p.check(ev.Kind.String()) }))
		if _, err := Run(set, p, WithVerify(), observe); err != nil {
			t.Fatalf("%s: %v", inner.Name(), err)
		}
		p.check("after the run")
		return p
	}

	for _, d := range []Driver{&Static{Policy: policy.SJF}, &EASY{Base: policy.FCFS}, NewDynP(core.Advanced{})} {
		if p := run(d); p.plans < 2 {
			t.Errorf("%s: %d plans; no plan was ever replaced", d.Name(), p.plans)
		}
	}
}

// TestStaticCompleteAfterNextPlanPanics: a static driver's schedule may
// be completed until the driver's next Plan returns and not after it, the
// lifetime rule of engine.Driver.
func TestStaticCompleteAfterNextPlanPanics(t *testing.T) {
	s := &Static{Policy: policy.FCFS}
	waiting := []*job.Job{
		{ID: 1, Width: 4, Estimate: 10, Runtime: 10},
		{ID: 2, Width: 4, Estimate: 10, Runtime: 10},
	}
	first := s.Plan(0, 4, nil, waiting)
	if len(first.Entries) != 1 {
		t.Fatalf("frontier plan holds %d entries, want job 1 alone", len(first.Entries))
	}
	s.Plan(0, 4, nil, waiting)
	defer func() {
		if recover() == nil {
			t.Error("completing a schedule after its driver's next Plan did not panic")
		}
	}()
	first.Complete()
}
