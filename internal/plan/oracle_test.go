package plan_test

import (
	"slices"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/rng"
)

// registeredPolicies resolves every exactly registered policy plus one
// member of the PSBS family (Names also lists family templates, which
// resolve to nothing and are skipped).
func registeredPolicies(t testing.TB) []policy.Policy {
	t.Helper()
	var out []policy.Policy
	for _, name := range append(policy.Names(), "PSBS(a=0.5,r=2)") {
		if p, err := policy.Lookup(name); err == nil {
			out = append(out, p)
		}
	}
	if len(out) < len(policy.All)+1 {
		t.Fatalf("resolved only %d policies from %v", len(out), policy.Names())
	}
	return out
}

// checkAgainstNaive requires the builder to reproduce the naive oracle's
// schedule entry for entry and score for score (BC-1), and that schedule
// to pass the strict Verify. Every policy's build lands in the same
// schedule, so each one overwrites the previous policy's entries, sums and
// Release mark, as a lane slot does from event to event.
func checkAgainstNaive(t testing.TB, policies []policy.Policy, now int64, capacity int, running []plan.Running, waiting []*job.Job) {
	t.Helper()
	var base plan.Base
	base.Reset(now, capacity, running)
	var got plan.Schedule
	for _, p := range policies {
		want := plantest.Plan(now, capacity, running, waiting, p)
		if err := want.Verify(running); err != nil {
			t.Fatalf("%s: naive schedule fails Verify: %v", p, err)
		}
		base.BuildInto(&got, policy.Order(p, waiting), p)
		if err := plantest.SameSchedule(&got, want); err != nil {
			t.Fatalf("%s (capacity %d, %d running, %d waiting): %v", p, capacity, len(running), len(waiting), err)
		}
		got.Release()
	}
}

// TestBuildersMatchNaive is the differential test of the placement loop:
// random bases and queues of up to 400 jobs in every shape, on a full and
// on a reduced effective capacity (the engine plans on fewer processors
// while some have failed; jobs too wide for it never reach the planner).
func TestBuildersMatchNaive(t *testing.T) {
	policies := registeredPolicies(t)
	for shape := plan.QueueShape(0); shape < plan.NumShapes; shape++ {
		for seed := uint64(0); seed < 4; seed++ {
			r := rng.New(seed*uint64(plan.NumShapes) + uint64(shape))
			capacity := []int{430, 128, 37, 5}[seed]
			if seed%2 == 1 {
				capacity -= capacity / 4 // reduced effective capacity
			}
			now := int64(r.Intn(1 << 20))
			n := []int{400, 150, 64, 17}[(int(seed)+int(shape))%4]
			running := plan.BusyMachine(r, capacity, now)
			checkAgainstNaive(t, policies, now, capacity, running, plan.ShapedQueue(r, shape, capacity, n, now))
		}
	}
}

// FuzzBuildVsNaive lets the fuzzer shape the queue directly: every two
// input bytes are one waiting job (width class, estimate class), so
// mutation reaches tie patterns, orderings and class counts no generator
// above draws. Estimates come from a small ladder, widths from the whole
// range, which keeps ties between jobs — the case the bounds' >= must get
// right — frequent.
func FuzzBuildVsNaive(f *testing.F) {
	policies := registeredPolicies(f)
	for shape := plan.QueueShape(0); shape < plan.NumShapes; shape++ {
		r := rng.New(uint64(shape))
		jobs := make([]byte, 2*(40+60*int(shape)))
		for i := range jobs {
			jobs[i] = byte(r.Intn(256))
			if shape == plan.ShapeIdentical {
				jobs[i] = 7
			}
		}
		f.Add(jobs, uint8(31*int(shape)), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, jobs []byte, cap8, seed uint8) {
		if len(jobs) > 800 {
			jobs = jobs[:800]
		}
		capacity := 1 + int(cap8)
		r := rng.New(uint64(seed))
		now := int64(r.Intn(1 << 20))
		waiting := make([]*job.Job, len(jobs)/2)
		for i := range waiting {
			est := int64(1+jobs[2*i+1]%16) * int64(1+jobs[2*i+1]/16) * 30
			waiting[i] = &job.Job{
				ID: job.ID(1000 + i), Submit: now - int64(jobs[2*i]),
				Width: 1 + int(jobs[2*i])%capacity, Estimate: est, Runtime: est,
			}
		}
		checkAgainstNaive(t, policies, now, capacity, plan.BusyMachine(r, capacity, now), waiting)
	})
}

// TestBaseNotMutatedBySiblingBuilds: candidate builds from one base, one
// after another, must never mutate it — each places onto the scratch
// copy — and each must still equal the oracle's schedule.
func TestBaseNotMutatedBySiblingBuilds(t *testing.T) {
	const capacity, now = 64, 1000
	r := rng.New(4)
	running := plan.BusyMachine(r, capacity, now)
	waiting := plan.ShapedQueue(r, plan.ShapeRandom, capacity, 80, now)
	var base plan.Base
	base.Reset(now, capacity, running)
	beforeTimes, beforeFree := base.Profile().Steps()

	for round := 0; round < 3; round++ {
		for _, p := range policy.All {
			var got plan.Schedule
			base.BuildInto(&got, policy.Order(p, waiting), p)
			if err := plantest.SameSchedule(&got, plantest.Plan(now, capacity, running, waiting, p)); err != nil {
				t.Errorf("%s, round %d: sibling build diverged: %v", p, round, err)
			}
		}
	}
	afterTimes, afterFree := base.Profile().Steps()
	if !slices.Equal(beforeTimes, afterTimes) || !slices.Equal(beforeFree, afterFree) {
		t.Fatal("sibling builds changed the base profile")
	}
}
