package plan

import (
	"fmt"
	"slices"
	"testing"

	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/profile/profiletest"
	"dynp/internal/rng"
)

// naiveBuild is the deliberately naive reference builder every production
// builder is compared against: the array-of-structs profiletest.Linear, a full
// policy.Order sort, every hole search started at now, an EarliestFit +
// Alloc pair per job, no pools, no fused scores and no search bounds. It
// returns the schedule (unscored, so its Planned* accessors walk the
// entries) and the profile it ended with.
func naiveBuild(now int64, capacity int, running []Running, waiting []*job.Job, p policy.Policy) (*Schedule, *profiletest.Linear) {
	prof := profiletest.NewLinear(capacity, now)
	for _, r := range running {
		if rem := r.EstimatedEnd() - now; rem > 0 {
			prof.Alloc(now, r.Job.Width, rem)
		}
	}
	s := &Schedule{Now: now, Capacity: capacity, Policy: p, Entries: []Entry{}}
	for _, j := range policy.Order(p, waiting) {
		start := prof.EarliestFit(now, j.Width, j.Estimate)
		prof.Alloc(start, j.Width, j.Estimate)
		s.Entries = append(s.Entries, Entry{Job: j, Start: start})
	}
	return s, prof
}

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

// checkAgainstNaive requires every production builder to reproduce the
// naive schedule entry for entry (and score for score), the schedule to
// pass the strict Verify, and the one shared placement loop to leave
// behind the very step function the naive builder did — boundaries
// included.
func checkAgainstNaive(t testing.TB, policies []policy.Policy, now int64, capacity int, running []Running, waiting []*job.Job) {
	t.Helper()
	base := BuildBase(now, capacity, running)
	pooled := BuildBasePooled(now, capacity, running)
	defer pooled.Release()
	for _, p := range policies {
		want, wantProf := naiveBuild(now, capacity, running, waiting, p)
		if err := want.Verify(running); err != nil {
			t.Fatalf("%s: naive schedule fails Verify: %v", p, err)
		}
		ordered := policy.Order(p, waiting)
		for name, got := range map[string]*Schedule{
			"BuildFrom":        BuildFrom(base, waiting, p),
			"BuildFromPooled":  BuildFromPooled(pooled, waiting, p),
			"BuildFromOrdered": BuildFromOrdered(pooled, ordered, p),
		} {
			if err := sameSchedule(got, want); err != nil {
				t.Fatalf("%s under %s (capacity %d, %d running, %d waiting): %v",
					name, p, capacity, len(running), len(waiting), err)
			}
		}
		prof := base.Profile()
		buildOnto(&Schedule{}, prof, now, capacity, ordered, p)
		gotT, gotF := prof.Steps()
		wantT, wantF := wantProf.Steps()
		if !slices.Equal(gotT, wantT) || !slices.Equal(gotF, wantF) {
			t.Fatalf("%s: final step function differs from the naive builder's", p)
		}
	}
}

// sameSchedule reports the first difference between two schedules: header,
// entries in order, then every planned score, bit for bit.
func sameSchedule(got, want *Schedule) error {
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

// queueShape names one way of drawing a waiting queue. The shapes are the
// inputs that stress the dominance proof behind buildOnto's search bounds.
type queueShape int

const (
	shapeRandom     queueShape = iota // independent widths and estimates
	shapeFewClasses                   // 3 widths x 3 estimates: heavy ties
	shapeIdentical                    // one (width, estimate) class
	shapeDecreasing                   // strictly decreasing estimates: under LJF no bound may fire
	shapeManyClass                    // far more distinct classes than witness slots: eviction
	shapeFullWidth                    // every third job as wide as the machine
	numShapes
)

// shapedQueue draws n waiting jobs of the given shape for a machine of the
// given capacity, all submitted at or before now.
func shapedQueue(r *rng.Stream, shape queueShape, capacity, n int, now int64) []*job.Job {
	waiting := make([]*job.Job, n)
	for i := range waiting {
		width, est := 1+r.Intn(capacity), int64(1+r.Intn(20000))
		switch shape {
		case shapeFewClasses:
			width = 1 + (capacity-1)*r.Intn(3)/2
			est = []int64{60, 3600, 86400}[r.Intn(3)]
		case shapeIdentical:
			width, est = 1+capacity/3, 1800
		case shapeDecreasing:
			est = int64(100 * (n - i))
		case shapeManyClass:
			width = 1 + i%capacity
			est = int64(50 + 37*((i*7)%(4*witnessSlots)))
		case shapeFullWidth:
			if i%3 == 0 {
				width = capacity
			}
		}
		waiting[i] = &job.Job{
			ID: job.ID(1000 + i), Submit: now - int64(r.Intn(1000)),
			Width: width, Estimate: est, Runtime: est,
		}
	}
	return waiting
}

// busyMachine draws running jobs that started before now and fill most of
// the machine, so the profile begins with a saturated head.
func busyMachine(r *rng.Stream, capacity int, now int64) []Running {
	var running []Running
	for used := 0; used < capacity*9/10; {
		w := 1 + r.Intn(1+capacity/8)
		if used+w > capacity {
			break
		}
		used += w
		start := now - int64(1+r.Intn(5000))
		est := now - start + int64(1+r.Intn(20000))
		running = append(running, Running{
			Job:   &job.Job{ID: job.ID(len(running) + 1), Submit: start, Width: w, Estimate: est, Runtime: est},
			Start: start,
		})
	}
	return running
}

// TestBuildersMatchNaive is the differential test of the placement loop:
// random bases and queues of up to 400 jobs in every shape, on a full and
// on a reduced effective capacity (the engine plans on fewer processors
// while some have failed; jobs too wide for it never reach the planner).
func TestBuildersMatchNaive(t *testing.T) {
	policies := registeredPolicies(t)
	for shape := queueShape(0); shape < numShapes; shape++ {
		for seed := uint64(0); seed < 4; seed++ {
			r := rng.New(seed*uint64(numShapes) + uint64(shape))
			capacity := []int{430, 128, 37, 5}[seed]
			if seed%2 == 1 {
				capacity -= capacity / 4 // reduced effective capacity
			}
			now := int64(r.Intn(1 << 20))
			n := []int{400, 150, 64, 17}[(int(seed)+int(shape))%4]
			running := busyMachine(r, capacity, now)
			checkAgainstNaive(t, policies, now, capacity, running, shapedQueue(r, shape, capacity, n, now))
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
	for shape := queueShape(0); shape < numShapes; shape++ {
		r := rng.New(uint64(shape))
		jobs := make([]byte, 2*(40+60*int(shape)))
		for i := range jobs {
			jobs[i] = byte(r.Intn(256))
			if shape == shapeIdentical {
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
		checkAgainstNaive(t, policies, now, capacity, busyMachine(r, capacity, now), waiting)
	})
}

// TestWitnessTable pins the table's own contract: a witness bounds only
// jobs at least as wide and at least as long, a dominated witness is
// dropped, and a full table evicts its earliest start.
func TestWitnessTable(t *testing.T) {
	var w witnesses
	if got := w.bound(10, 4, 100); got != 10 {
		t.Fatalf("empty table bounds at %d, want now", got)
	}
	w.record(4, 100, 500)
	for _, c := range []struct {
		width int
		est   int64
		want  int64
	}{
		{4, 100, 500}, {9, 1000, 500}, // at least as wide and as long
		{3, 100, 10}, {4, 99, 10}, {3, 5000, 10}, {64, 1, 10}, // smaller in one dimension: no bound
	} {
		if got := w.bound(10, c.width, c.est); got != c.want {
			t.Errorf("bound(w=%d, d=%d) = %d, want %d", c.width, c.est, got, c.want)
		}
	}
	w.record(2, 50, 700) // applies wherever (4, 100, 500) does, later: replaces it
	if w.n != 1 || w.bound(10, 4, 100) != 700 {
		t.Fatalf("dominated witness kept: %+v", w)
	}
	w.record(1, 60, 300) // narrower but earlier: both stay
	if w.n != 2 || w.bound(10, 1, 60) != 300 || w.bound(10, 2, 60) != 700 {
		t.Fatalf("incomparable witnesses not both kept: %+v", w)
	}

	// An antichain longer than the table: widths fall as estimates and
	// starts rise, so nothing dominates anything and the earliest starts
	// must be the ones that leave.
	w = witnesses{}
	const n = 3 * witnessSlots
	for i := 0; i < n; i++ {
		w.record(n-i, int64(10+i), int64(1000+i))
	}
	if w.n != witnessSlots {
		t.Fatalf("table holds %d witnesses, want %d", w.n, witnessSlots)
	}
	for i := 0; i < w.n; i++ {
		if w.w[i].start < 1000+n-witnessSlots {
			t.Fatalf("kept start %d over a later one: %+v", w.w[i].start, w)
		}
	}
}

// TestDecreasingEstimatesNeverBound: under LJF with strictly decreasing
// estimates every job is shorter than all placed before it, so no witness
// may ever apply — whatever the table holds.
func TestDecreasingEstimatesNeverBound(t *testing.T) {
	r := rng.New(11)
	const capacity, now = 64, 5000
	ordered := policy.Order(policy.LJF, shapedQueue(r, shapeDecreasing, capacity, 300, now))
	prof := BuildBase(now, capacity, busyMachine(r, capacity, now)).Profile()
	var proven witnesses
	recorded := 0
	for _, j := range ordered {
		if from := proven.bound(now, j.Width, j.Estimate); from != now {
			t.Fatalf("%s bounded at %d by a longer job's witness", j, from)
		}
		start, depth := prof.PlaceDepth(now, j.Width, j.Estimate)
		if depth >= witnessMinDepth {
			proven.record(j.Width, j.Estimate, start)
			recorded++
		}
	}
	if recorded == 0 {
		t.Fatal("no placement was deep enough to record: the test proves nothing")
	}
}
