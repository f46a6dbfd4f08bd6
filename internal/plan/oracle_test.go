package plan_test

import (
	"reflect"
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
// to pass the strict Verify. All policies are built in one call, so orders
// sharing a prefix resume each other's builds. The call is made twice, the
// second time with the policies reversed, into the same schedules: every
// slot is overwritten with another policy's entries, sums and Release mark,
// as a lane slot is from event to event, and the forks run the other way.
// Each order is also built up to its launch frontier, on a base and into a
// schedule of its own, reused the same way (see checkFrontier).
func checkAgainstNaive(t testing.TB, policies []policy.Policy, now int64, capacity int, running []plan.Running, waiting []*job.Job) {
	t.Helper()
	var base, frontier plan.Base
	base.Reset(now, capacity, running)
	frontier.Reset(now, capacity, running)
	var fs plan.Schedule
	got := make([]*plan.Schedule, len(policies))
	for i := range got {
		got[i] = new(plan.Schedule)
	}
	reversed := slices.Clone(policies)
	slices.Reverse(reversed)
	for _, ps := range [][]policy.Policy{policies, reversed} {
		orders := make([][]*job.Job, len(ps))
		for i, p := range ps {
			orders[i] = policy.Order(p, waiting)
		}
		base.BuildInto(got, orders, ps)
		for i, p := range ps {
			want := plantest.Plan(now, capacity, running, waiting, p)
			if err := want.Verify(running); err != nil {
				t.Fatalf("%s: naive schedule fails Verify: %v", p, err)
			}
			if err := plantest.SameSchedule(got[i], want); err != nil {
				t.Fatalf("%s, order %d of %v (capacity %d, %d running, %d waiting): %v",
					p, i, ps, capacity, len(running), len(waiting), err)
			}
			checkFrontier(t, &frontier, &fs, orders[i], p, got[i], want)
			got[i].Release()
		}
	}
}

// checkFrontier builds order up to its launch frontier into s and
// requires every job the build left unplaced to start after now in the
// naive plan, and the completed schedule to equal whole, BuildInto's plan
// of the same order, field for field: entries, metric sums and marks.
func checkFrontier(t testing.TB, base *plan.Base, s *plan.Schedule, order []*job.Job, p policy.Policy, whole, naive *plan.Schedule) {
	t.Helper()
	base.FrontierInto(s, order, p)
	placed := len(s.Entries)
	for _, e := range naive.Entries[placed:] {
		if e.Start == naive.Now {
			t.Fatalf("%s: the frontier build stopped after %d of %d placements, but %s starts now",
				p, placed, len(order), e.Job)
		}
	}
	s.Complete()
	if !reflect.DeepEqual(s, whole) {
		t.Fatalf("%s: the completed frontier schedule differs from the whole build (%d placed before completion)", p, placed)
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

// TestForkShapes builds, against the naive oracle, each way one order can
// resume another's build. shared lists, per order, the longest prefix it
// shares with an earlier order of the call — where its build resumes, 0
// for a build from the base — so each case is pinned to the shape its
// name says. The head of the long queues is what makes FCFS and LJF share
// a prefix on CTC: the oldest waiting jobs all carry the maximum estimate,
// and LJF breaks that tie by submission time.
func TestForkShapes(t *testing.T) {
	const capacity, now = 64, 100000
	r := rng.New(11)
	running := plan.BusyMachine(r, capacity, now)
	var head, descending []*job.Job
	for i := range 12 {
		head = append(head, &job.Job{ID: job.ID(1 + i), Submit: now - 10000 + int64(i),
			Width: 40, Estimate: 64800, Runtime: 64800})
	}
	for i := range 30 { // submission order is LJF order
		est := int64(100 * (30 - i))
		descending = append(descending, &job.Job{ID: job.ID(100 + i), Submit: now - 5000 + int64(i),
			Width: 1 + 7*i%capacity, Estimate: est, Runtime: est})
	}
	tail := plan.ShapedQueue(r, plan.ShapeRandom, capacity, 40, now) // younger, shorter, smaller
	long := slices.Concat(head, tail)
	psbs, err := policy.Lookup("PSBS(a=0.5,r=2)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		policies []policy.Policy
		waiting  []*job.Job
		shared   []int
	}{
		{"one order", []policy.Policy{policy.SJF}, tail, []int{0}},
		{"empty queue", policy.All, nil, []int{0, 0, 0, 0, 0}},
		{"identical orders", []policy.Policy{policy.FCFS, policy.LJF}, descending, []int{0, 30}},
		{"no common prefix", []policy.Policy{policy.SJF, policy.LJF}, tail, []int{0, 0}},
		// An order never resumes its parent at the parent's own fork
		// point: it would share as much with the grandparent, which comes
		// first and wins the tie. Both then resume the grandparent there.
		{"siblings at one fork point", []policy.Policy{policy.FCFS, policy.LJF, policy.LAF}, long, []int{0, 12, 12}},
		// The second LJF resumes the first, itself resumed, at n.
		{"duplicated policy", []policy.Policy{policy.FCFS, policy.LJF, policy.SJF, policy.LJF}, long, []int{0, 12, 0, 52}},
		{"five policies", []policy.Policy{policy.FCFS, policy.SAF, policy.LJF, policy.LAF, psbs}, long, []int{0, 0, 12, 12, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			shared := make([]int, len(c.policies))
			for i, p := range c.policies {
				for _, q := range c.policies[:i] {
					shared[i] = max(shared[i], sharedPrefix(policy.Order(p, c.waiting), policy.Order(q, c.waiting)))
				}
			}
			if !slices.Equal(shared, c.shared) {
				t.Fatalf("orders share prefixes %v, want %v", shared, c.shared)
			}
			checkAgainstNaive(t, c.policies, now, capacity, running, c.waiting)
		})
	}
}

// sharedPrefix returns the number of leading jobs a and b have in common.
func sharedPrefix(a, b []*job.Job) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestBaseNotMutatedBySiblingBuilds: candidate builds from one base must
// never mutate it — each places onto the scratch copy or a fork's — and
// each must still equal the oracle's schedule.
func TestBaseNotMutatedBySiblingBuilds(t *testing.T) {
	const capacity, now = 64, 1000
	r := rng.New(4)
	running := plan.BusyMachine(r, capacity, now)
	waiting := plan.ShapedQueue(r, plan.ShapeRandom, capacity, 80, now)
	var base plan.Base
	base.Reset(now, capacity, running)
	beforeTimes, beforeFree := base.Profile().Steps()

	got := make([]*plan.Schedule, len(policy.All))
	orders := make([][]*job.Job, len(policy.All))
	for i, p := range policy.All {
		got[i], orders[i] = new(plan.Schedule), policy.Order(p, waiting)
	}
	for round := 0; round < 3; round++ {
		base.BuildInto(got, orders, policy.All)
		for i, p := range policy.All {
			if err := plantest.SameSchedule(got[i], plantest.Plan(now, capacity, running, waiting, p)); err != nil {
				t.Errorf("%s, round %d: sibling build diverged: %v", p, round, err)
			}
		}
	}
	afterTimes, afterFree := base.Profile().Steps()
	if !slices.Equal(beforeTimes, afterTimes) || !slices.Equal(beforeFree, afterFree) {
		t.Fatal("sibling builds changed the base profile")
	}
}
