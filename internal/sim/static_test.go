package sim

import (
	"fmt"
	"slices"
	"testing"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/profile/profiletest"
	"dynp/internal/rng"
)

// laneCount tallies the plans a lockstep driver checked, by the lane
// that served them: the spliced order view or the full-sort fallback.
// One count outlives the drivers of a stream, which restarts replace.
type laneCount struct{ view, sort int }

func (c *laneCount) note(covered bool) {
	if covered {
		c.view++
	} else {
		c.sort++
	}
}

// lockstepStatic is a Static driver that checks every schedule it plans
// against referencePlan before handing it to the engine. Embedding keeps
// it an engine.QueueTracker, so the order view stays engaged.
type lockstepStatic struct {
	*Static
	t     testing.TB
	lanes *laneCount
}

func (d *lockstepStatic) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	d.lanes.note(d.views.Covering(waiting) != nil)
	got := d.Static.Plan(now, capacity, running, waiting)
	want := referencePlan(now, capacity, running, waiting, d.Policy)
	if got.Now != want.Now || got.Capacity != want.Capacity || got.Policy != want.Policy ||
		!slices.Equal(got.Entries, want.Entries) {
		d.t.Fatalf("%v at t=%d (%d running, %d waiting):\n got %v\nwant %v",
			d.Policy, now, len(running), len(waiting), got.Entries, want.Entries)
	}
	g := [...]float64{got.PlannedSLDwA(), got.PlannedART(), got.PlannedARTwW(), got.PlannedAWT(), got.PlannedMakespan()}
	w := [...]float64{want.PlannedSLDwA(), want.PlannedART(), want.PlannedARTwW(), want.PlannedAWT(), want.PlannedMakespan()}
	if g != w {
		d.t.Fatalf("%v at t=%d: planned scores %v, want %v", d.Policy, now, g, w)
	}
	return got
}

// referencePlan is what a planning driver's schedule for policy p must
// equal, built the slow obvious way at every event: a full policy.Order
// sort placed job by job on the array-of-structs profiletest.Linear. It shares
// nothing with the planner — no pools, no views, no bounded search — and
// its schedule is assembled by hand, so its Planned* scores walk the
// entries.
func referencePlan(now int64, capacity int, running []plan.Running, waiting []*job.Job, p policy.Policy) *plan.Schedule {
	prof := profiletest.NewLinear(capacity, now)
	for _, r := range running {
		if rem := r.EstimatedEnd() - now; rem > 0 {
			prof.Alloc(now, r.Job.Width, rem)
		}
	}
	s := &plan.Schedule{Now: now, Capacity: capacity, Policy: p, Entries: []plan.Entry{}}
	for _, j := range policy.Order(p, waiting) {
		start := prof.EarliestFit(now, j.Width, j.Estimate)
		prof.Alloc(start, j.Width, j.Estimate)
		s.Entries = append(s.Entries, plan.Entry{Job: j, Start: start})
	}
	return s
}

// runLockstep interprets data as an event stream — two bytes an event —
// against an engine planning with the self-checking driver newDriver
// returns (a lockstepStatic or a lockstepDynP), replanning and checking
// the engine's invariants after every event. The streams reach
// everything that changes what Plan is handed: submissions with heavily
// tied keys, clock advances that fire kills at the estimate and planned
// starts, early completions, cancellations, an ID cancelled and
// re-submitted as a new job within one instant, processor failures that
// make the engine withhold jobs too wide for what is left (the view no
// longer covers the planned queue: full-sort fallback) or drain the
// machine entirely, and a checkpoint restored into a fresh engine and
// driver, which primes the new view through NoteSubmit.
func runLockstep(t testing.TB, newDriver func() Driver, data []byte) {
	const capacity = 16
	eng := engine.New(capacity, newDriver(), 0)
	submit := func(id job.ID, arg byte) {
		est := []int64{30, 30, 600, 3600}[int(arg/5)%4]
		eng.Submit(&job.Job{ID: id, Submit: eng.Now(), Width: 1 << (arg % 5), Estimate: est, Runtime: est})
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
		case 4:
			if running := eng.Running(); len(running) > 0 {
				eng.Finish(running[int(arg)%len(running)].Job.ID, engine.FinishCompleted)
			}
		case 5:
			if waiting := eng.Waiting(); len(waiting) > 0 {
				id := waiting[int(arg)%len(waiting)].ID
				eng.CancelWaiting(id)
				if arg >= 128 {
					submit(id, arg)
				}
			}
		case 6:
			if eff := eng.Effective(); arg%2 == 0 && eff > 0 {
				eng.FailProcs(1 + int(arg/2)%eff)
			} else if failed := eng.FailedProcs(); failed > 0 {
				eng.RestoreProcs(1 + int(arg/2)%failed)
			}
		case 7:
			st := engine.State{Now: eng.Now(), Failed: eng.FailedProcs(),
				Waiting: slices.Clone(eng.Waiting()), Running: slices.Clone(eng.Running())}
			eng = engine.New(capacity, newDriver(), 0) // a restart: nothing of the old driver survives
			if err := eng.RestoreState(st); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Replan(); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("after event %d (op %d): %v", i/2, op%8, err)
		}
	}
}

// staticLockstep returns runLockstep's driver factory for policy p.
func staticLockstep(t testing.TB, p policy.Policy, lanes *laneCount) func() Driver {
	return func() Driver { return &lockstepStatic{Static: &Static{Policy: p}, t: t, lanes: lanes} }
}

// lockstepPolicies are the paper's three static baselines and one member
// of the PSBS family, whose float-keyed order is the likeliest to expose
// a splice that disagrees with the sort.
func lockstepPolicies() []policy.Policy {
	return []policy.Policy{policy.FCFS, policy.SJF, policy.LJF, policy.MustFairSize(0.5, 2)}
}

// TestStaticLockstep runs seeded random streams through the lockstep
// harness and requires both lanes — spliced view and full-sort fallback —
// to have actually planned.
func TestStaticLockstep(t *testing.T) {
	for _, p := range lockstepPolicies() {
		var lanes laneCount
		for seed := uint64(0); seed < 6; seed++ {
			runLockstep(t, staticLockstep(t, p, &lanes), lockstepStream(seed))
		}
		if lanes.view == 0 || lanes.sort == 0 {
			t.Errorf("%v: %d plans read the view, %d sorted in full; the streams must reach both", p, lanes.view, lanes.sort)
		}
	}
}

// lockstepStream is the seeded random event stream (500 events) of the
// lockstep tests.
func lockstepStream(seed uint64) []byte {
	r := rng.New(100 + seed)
	data := make([]byte, 2*500)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

// FuzzStaticLockstep hands the event stream to the fuzzer; the first
// byte picks the policy.
func FuzzStaticLockstep(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 17, 2, 9, 3, 2, 4, 0})
	f.Add([]byte{1, 0, 4, 0, 4, 0, 4, 6, 6, 0, 1, 3, 200, 6, 1, 7, 0, 3, 9})
	f.Add([]byte{2, 0, 9, 1, 9, 5, 200, 5, 3, 7, 0, 0, 14, 4, 0, 3, 255})
	f.Add([]byte{3, 2, 24, 2, 24, 2, 23, 6, 30, 0, 4, 6, 31, 3, 100, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 801 {
			data = data[:801]
		}
		ps := lockstepPolicies()
		runLockstep(t, staticLockstep(t, ps[int(data[0])%len(ps)], new(laneCount)), data[1:])
	})
}

// TestRunParallelStaticDrivers puts twelve static simulations on eight
// workers at once, every Plan drawing from and returning to the shared
// plan pools, and requires each to equal its sequential run. Under -race
// this is the cross-simulation pool traffic check.
func TestRunParallelStaticDrivers(t *testing.T) {
	sets := parallelTestSets(t)
	sets = append(sets, sets...)
	for _, p := range policy.Candidates {
		newDriver := func() Driver { return &Static{Policy: p} }
		results, err := RunParallel(sets, newDriver, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sets {
			res, err := Run(s, newDriver(), WithVerify())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprint(results[i]), fingerprint(res); got != want {
				t.Errorf("%v, set %d: parallel run diverged from the sequential one:\n got: %s\nwant: %s", p, i, got, want)
			}
		}
	}
}

func ExampleStatic_lifetime() {
	s := &Static{Policy: policy.FCFS}
	a := &job.Job{ID: 1, Width: 1, Estimate: 10, Runtime: 10}
	first := s.Plan(0, 4, nil, []*job.Job{a})
	start := first.Entries[0].Start // copy out what must outlive the next Plan
	s.Plan(5, 4, nil, []*job.Job{a})
	fmt.Println(start, first.Released())
	// Output: 0 true
}
