package sim

import (
	"fmt"
	"testing"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
)

// staticLockstep returns plantest.Run's driver factory for policy p: a
// fresh Static per (re)start, checked against the naive oracle.
func staticLockstep(t testing.TB, p policy.Policy, lanes *plantest.Lanes) func() Driver {
	return func() Driver { return plantest.Lockstep(t, &Static{Policy: p}, lanes) }
}

// lockstepPolicies are the paper's three static baselines and one member
// of the PSBS family, whose float-keyed order is the likeliest to expose
// a splice that disagrees with the sort.
func lockstepPolicies() []policy.Policy {
	return []policy.Policy{policy.FCFS, policy.SJF, policy.LJF, policy.MustFairSize(0.5, 2)}
}

// TestStaticLockstep runs seeded random streams through the lockstep
// harness and requires the view to have been synced with a queue in which
// withheld jobs rejoin out of order, and the frontier build both to have
// stopped with jobs left unplaced and to have placed a whole queue.
func TestStaticLockstep(t *testing.T) {
	for _, p := range lockstepPolicies() {
		var lanes plantest.Lanes
		for seed := uint64(0); seed < 6; seed++ {
			plantest.Run(t, staticLockstep(t, p, &lanes), plantest.Stream(seed))
		}
		if lanes.Rejoined == 0 {
			t.Errorf("%v: no plan was handed a job rejoining the queue out of order; the streams must reach it", p)
		}
		if lanes.Stopped == 0 || lanes.Whole == 0 {
			t.Errorf("%v: %d builds stopped at the launch frontier, %d placed everything; the streams must reach both",
				p, lanes.Stopped, lanes.Whole)
		}
	}
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
		plantest.Run(t, staticLockstep(t, ps[int(data[0])%len(ps)], new(plantest.Lanes)), data[1:])
	})
}

// TestStaticPolicyChangedInUse: Policy is an exported field, and the
// order view is primed with the value it held at first use. A driver
// whose Policy changes afterwards must plan in the new policy's order —
// not the primed order under the new label, which Schedule.Verify cannot
// tell apart (it checks earliest fit in entry order, not the order).
func TestStaticPolicyChangedInUse(t *testing.T) {
	s := &Static{Policy: policy.FCFS}
	eng := engine.New(4, plantest.Lockstep(t, s, new(plantest.Lanes)), 0)
	eng.Submit(&job.Job{ID: 1, Width: 4, Estimate: 100, Runtime: 100})
	eng.Submit(&job.Job{ID: 2, Width: 4, Estimate: 10, Runtime: 10})
	eng.Submit(&job.Job{ID: 3, Width: 4, Estimate: 50, Runtime: 50})
	if err := eng.Replan(); err != nil { // launches job 1; 2 and 3 wait in FCFS order
		t.Fatal(err)
	}
	s.Policy = policy.LJF
	if err := eng.Replan(); err != nil { // the lockstep driver checks it against the oracle
		t.Fatal(err)
	}
	if got := eng.Schedule(); got.Policy != policy.LJF || got.Entries[0].Job.ID != 3 {
		t.Fatalf("after the switch to LJF: %v under %v, want job 3 first", got.Entries, got.Policy)
	}
}

// TestRunParallelStaticDrivers puts twelve static simulations on eight
// workers at once and requires each to equal its sequential run.
// Simulations share no planning storage — each driver's lane owns its
// own — so under -race this checks that nothing else is shared either.
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
