package profile

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dynp/internal/profile/profiletest"
	"dynp/internal/rng"
)

// checkInv fails the test when the representation violates its own
// invariants (slice lengths, ordering, bounds).
func checkInv(t *testing.T, p *Profile) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewAllFree(t *testing.T) {
	p := New(64, 100)
	if p.Capacity() != 64 || p.Start() != 100 {
		t.Fatalf("capacity/start wrong: %v", p)
	}
	if got := p.FreeAt(100); got != 64 {
		t.Fatalf("FreeAt(start) = %d", got)
	}
	if got := p.FreeAt(1 << 40); got != 64 {
		t.Fatalf("FreeAt(far future) = %d", got)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 0) did not panic")
		}
	}()
	New(0, 0)
}

func TestPlaceImmediate(t *testing.T) {
	p := New(10, 0)
	if start := p.Place(0, 4, 100); start != 0 {
		t.Fatalf("first placement at %d, want 0", start)
	}
	if got := p.FreeAt(0); got != 6 {
		t.Fatalf("free after placement = %d, want 6", got)
	}
	if got := p.FreeAt(100); got != 10 {
		t.Fatalf("free after job end = %d, want 10", got)
	}
}

func TestPlaceQueuesBehindFullMachine(t *testing.T) {
	p := New(10, 0)
	p.Place(0, 10, 50) // fills the machine until t=50
	if start := p.Place(0, 1, 10); start != 50 {
		t.Fatalf("second placement at %d, want 50", start)
	}
}

func TestImplicitBackfill(t *testing.T) {
	// Wide job reserves [10, 110); a narrow short job must slide into
	// the hole [0, 10) without disturbing the reservation.
	p := New(10, 0)
	p.Alloc(0, 6, 10)       // running job until t=10
	w := p.Place(0, 8, 100) // wide job cannot start before 10
	if w != 10 {
		t.Fatalf("wide job at %d, want 10", w)
	}
	n := p.Place(0, 4, 10) // narrow job backfills at 0
	if n != 0 {
		t.Fatalf("backfill start %d, want 0", n)
	}
	// A narrow job too long for the hole must go behind the wide job.
	l := p.Place(0, 4, 11)
	if l != 110 {
		t.Fatalf("long narrow job at %d, want 110", l)
	}
	checkInv(t, p)
}

func TestEarliestFitRespectsEarliestBound(t *testing.T) {
	p := New(10, 0)
	if got := p.EarliestFit(42, 1, 10); got != 42 {
		t.Fatalf("EarliestFit honoured hole before earliest: %d", got)
	}
}

func TestEarliestFitSpansMultipleSteps(t *testing.T) {
	p := New(10, 0)
	p.Alloc(10, 4, 10) // free: [0,10):10, [10,20):6, [20,inf):10
	// Width 6 for duration 15 starting at 0 would cross the 6-free
	// window: 10-6=4 < 6? No: free in [10,20) is 6, 6 >= 6 fits.
	if got := p.EarliestFit(0, 6, 15); got != 0 {
		t.Fatalf("width 6 should fit at 0, got %d", got)
	}
	// Width 7 cannot cross [10,20).
	if got := p.EarliestFit(0, 7, 15); got != 20 {
		t.Fatalf("width 7 should wait for 20, got %d", got)
	}
	// Width 7 but short enough to finish by 10 fits at 0.
	if got := p.EarliestFit(0, 7, 10); got != 0 {
		t.Fatalf("width 7 duration 10 should fit at 0, got %d", got)
	}
}

func TestAllocPanicsOnOverAllocation(t *testing.T) {
	p := New(4, 0)
	p.Alloc(0, 4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	p.Alloc(5, 1, 2)
}

func TestCheckPanics(t *testing.T) {
	p := New(4, 0)
	for _, fn := range []func(){
		func() { p.EarliestFit(0, 0, 10) },
		func() { p.EarliestFit(0, 5, 10) },
		func() { p.EarliestFit(0, 1, 0) },
		func() { p.Alloc(0, -1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPreStartPanics(t *testing.T) {
	// Regression: Alloc with a start before the profile start used to
	// silently clip the reservation — New(4,100) then Alloc(50,2,100)
	// reserved only [100,150), shrinking a 100 s reservation to 50 s with
	// no error. All entry points must panic instead.
	for name, fn := range map[string]func(p *Profile){
		"Alloc":       func(p *Profile) { p.Alloc(50, 2, 100) },
		"EarliestFit": func(p *Profile) { p.EarliestFit(50, 2, 100) },
		"Place":       func(p *Profile) { p.Place(50, 2, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with pre-start time did not panic", name)
				}
			}()
			fn(New(4, 100))
		}()
	}
	// The boundary itself stays valid.
	p := New(4, 100)
	if got := p.Place(100, 2, 100); got != 100 {
		t.Fatalf("Place at profile start = %d, want 100", got)
	}
}

func TestCloneIntoMatchesClone(t *testing.T) {
	p := New(8, 5)
	p.Alloc(10, 3, 20)
	p.Alloc(25, 5, 5)

	var dst Profile
	p.CloneInto(&dst)
	want := p.Clone()
	wt, wf := want.Steps()
	gt, gf := dst.Steps()
	if fmt.Sprint(wt, wf) != fmt.Sprint(gt, gf) || dst.Capacity() != want.Capacity() {
		t.Fatalf("CloneInto mismatch: got %v, want %v", &dst, want)
	}

	// Independence: mutating the destination leaves the source alone.
	dst.Alloc(10, 5, 10)
	if got := p.FreeAt(10); got != 5 {
		t.Fatalf("CloneInto destination mutation leaked into source: free %d", got)
	}

	// Reuse: cloning a smaller profile into the same destination must not
	// retain stale steps.
	q := New(4, 0)
	q.CloneInto(&dst)
	gt, gf = dst.Steps()
	if len(gt) != 1 || gt[0] != 0 || gf[0] != 4 {
		t.Fatalf("CloneInto reuse kept stale steps: times %v free %v", gt, gf)
	}
}

func TestResetMatchesNew(t *testing.T) {
	p := New(8, 0)
	p.Alloc(0, 8, 100)
	p.Alloc(100, 4, 50)
	p.Reset(16, 42)
	want := New(16, 42)
	wt, wf := want.Steps()
	gt, gf := p.Steps()
	if fmt.Sprint(wt, wf) != fmt.Sprint(gt, gf) || p.Capacity() != 16 {
		t.Fatalf("Reset: got %v, want %v", p, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset with capacity 0 did not panic")
			}
		}()
		p.Reset(0, 0)
	}()
}

func TestCloneIsIndependent(t *testing.T) {
	p := New(8, 0)
	p.Alloc(0, 4, 10)
	c := p.Clone()
	c.Alloc(0, 4, 10)
	if got := p.FreeAt(0); got != 4 {
		t.Fatalf("clone mutation leaked into original: free %d", got)
	}
	if got := c.FreeAt(0); got != 0 {
		t.Fatalf("clone free %d, want 0", got)
	}
}

func TestStepsMergedView(t *testing.T) {
	p := New(8, 0)
	p.Alloc(5, 2, 10)
	times, free := p.Steps()
	if len(times) != len(free) {
		t.Fatal("Steps slices differ in length")
	}
	// Expect boundaries at 0, 5 and 15.
	want := map[int64]int{0: 8, 5: 6, 15: 8}
	for i, tm := range times {
		if w, ok := want[tm]; ok && free[i] != w {
			t.Fatalf("free at %d = %d, want %d", tm, free[i], w)
		}
	}
}

// TestReleaseUndoesAlloc: releasing a reservation drops exactly the
// boundaries it alone made, and a release that only frees a suffix opens
// the boundary it needs.
func TestReleaseUndoesAlloc(t *testing.T) {
	p := New(8, 0)
	p.Alloc(0, 3, 20)
	p.Alloc(5, 2, 10)
	p.Alloc(0, 1, 15)
	p.Release(5, 2, 10) // 5 goes; 15 still ends the width-1 job
	wantSteps(t, p, []int64{0, 15, 20}, []int{4, 5, 8})
	p.Release(10, 3, 10) // a suffix: opens 10, drops 20
	wantSteps(t, p, []int64{0, 10, 15}, []int{4, 7, 8})
	p.Release(0, 1, 15)
	wantSteps(t, p, []int64{0, 10}, []int{5, 8})
	p.Release(0, 3, 10)
	wantSteps(t, p, []int64{0}, []int{8})
	checkInv(t, p)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing processors never reserved did not panic")
		}
	}()
	p.Release(0, 1, 1)
}

// TestAdvance: the start moves onto a step, onto a boundary and past
// several, and the steps behind it are forgotten; moving back panics.
func TestAdvance(t *testing.T) {
	p := New(8, 0)
	p.Alloc(0, 3, 20)
	p.Alloc(0, 2, 10)
	p.Alloc(0, 1, 30)
	p.Advance(0)
	wantSteps(t, p, []int64{0, 10, 20, 30}, []int{2, 4, 7, 8})
	p.Advance(4)
	wantSteps(t, p, []int64{4, 10, 20, 30}, []int{2, 4, 7, 8})
	p.Advance(10)
	wantSteps(t, p, []int64{10, 20, 30}, []int{4, 7, 8})
	p.Advance(31)
	wantSteps(t, p, []int64{31}, []int{8})
	checkInv(t, p)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance into the past did not panic")
		}
	}()
	p.Advance(30)
}

func wantSteps(t *testing.T, p *Profile, times []int64, free []int) {
	t.Helper()
	if gt, gf := p.Steps(); !slices.Equal(gt, times) || !slices.Equal(gf, free) {
		t.Fatalf("steps %v %v, want %v %v", gt, gf, times, free)
	}
}

// naive is a brute-force per-second free-capacity model used as the
// oracle in the property test.
type naive struct {
	capacity int
	used     map[int64]int
}

func (n *naive) alloc(start int64, width int, dur int64) {
	for t := start; t < start+dur; t++ {
		n.used[t] += width
	}
}

func (n *naive) fits(start int64, width int, dur int64) bool {
	for t := start; t < start+dur; t++ {
		if n.used[t]+width > n.capacity {
			return false
		}
	}
	return true
}

func (n *naive) earliest(earliest int64, width int, dur int64) int64 {
	for t := earliest; ; t++ {
		if n.fits(t, width, dur) {
			return t
		}
	}
}

func TestPropertyMatchesNaiveOracle(t *testing.T) {
	// Random placement sequences must produce identical start times in
	// the step-function profile and a brute-force per-second model.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		const capacity = 16
		p := New(capacity, 0)
		n := &naive{capacity: capacity, used: make(map[int64]int)}
		for i := 0; i < 40; i++ {
			width := 1 + r.Intn(capacity)
			dur := int64(1 + r.Intn(30))
			earliest := int64(r.Intn(50))
			got := p.Place(earliest, width, dur)
			want := n.earliest(earliest, width, dur)
			if got != want {
				t.Logf("seed %d step %d: profile %d, oracle %d (w=%d d=%d e=%d)",
					seed, i, got, want, width, dur, earliest)
				return false
			}
			n.alloc(want, width, dur)
		}
		checkInv(t, p)
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNeverNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		p := New(8, 0)
		for i := 0; i < 100; i++ {
			p.Place(int64(r.Intn(100)), 1+r.Intn(8), int64(1+r.Intn(50)))
		}
		checkInv(t, p)
		_, free := p.Steps()
		for _, f := range free {
			if f < 0 || f > 8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAtPanicsPreStart(t *testing.T) {
	// Regression: FreeAt used to silently answer for times before the
	// profile start by clamping to the first step, while EarliestFit and
	// Alloc panic on the same input. The contract is now uniform: the
	// profile carries no information about the past, so asking for it is
	// a scheduler bug and every entry point panics.
	p := New(4, 100)
	if got := p.FreeAt(100); got != 4 {
		t.Fatalf("FreeAt at the start boundary = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FreeAt(99) on a profile starting at 100 did not panic")
		}
	}()
	p.FreeAt(99)
}

func TestLinearFreeAtPanicsPreStart(t *testing.T) {
	p := profiletest.NewLinear(4, 100)
	if got := p.FreeAt(100); got != 4 {
		t.Fatalf("FreeAt at the start boundary = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("linear FreeAt(99) on a profile starting at 100 did not panic")
		}
	}()
	p.FreeAt(99)
}

// sameSteps requires the profile and the oracle to hold the same step
// sequence element for element — same boundaries, same free counts,
// redundant equal-valued steps included.
func sameSteps(p *Profile, l *profiletest.Linear) error {
	pt, pf := p.Steps()
	lt, lf := l.Steps()
	if !slices.Equal(pt, lt) || !slices.Equal(pf, lf) {
		return fmt.Errorf("step sequences differ:\n got %v\nwant %v", p, l)
	}
	return nil
}

// TestReserveBoundaryCases walks the fused insertion through its four
// cases — start boundary needed or not, end boundary needed or not — at
// every position that moves a different part of the arrays: the first
// step, mid-profile, ending exactly at the last step, ending past it and
// lying wholly past it, plus windows that swallow existing steps. Alloc
// and Place both go through it; each result is compared step for step
// with the oracle's two independent splits.
func TestReserveBoundaryCases(t *testing.T) {
	// Steps [0:10] [10:9] [20:8] [30:7] [40:10]: every step a different
	// free count, so a boundary copied from the wrong neighbour shows.
	build := func() (*Profile, *profiletest.Linear) {
		p, l := New(10, 0), profiletest.NewLinear(10, 0)
		for w := 1; w <= 3; w++ {
			p.Alloc(int64(10*w), w, 10)
			l.Alloc(int64(10*w), w, 10)
		}
		return p, l
	}
	for _, c := range []struct {
		name             string
		start, duration  int64
		newStart, newEnd bool
		startIndex       int
	}{
		{"first step, neither", 0, 10, false, false, 0},
		{"first step, end only", 0, 5, false, true, 0},
		{"start == Start(), across steps, end only", 0, 25, false, true, 0},
		{"first step, start only", 5, 5, true, false, 1},
		{"first step, both", 3, 4, true, true, 1},
		{"mid, neither", 10, 10, false, false, 1},
		{"mid, neither, across steps", 10, 20, false, false, 1},
		{"mid, end only", 10, 5, false, true, 1},
		{"mid, end only, across steps", 10, 15, false, true, 1},
		{"mid, start only", 15, 5, true, false, 2},
		{"mid, start only, across steps", 15, 15, true, false, 2},
		{"mid, both in one step", 12, 3, true, true, 2},
		{"mid, both, across steps", 15, 10, true, true, 2},
		{"ending at the last step, neither", 30, 10, false, false, 3},
		{"ending at the last step, start only", 35, 5, true, false, 4},
		{"ending past the last step, end only", 30, 15, false, true, 3},
		{"ending past the last step, both", 35, 10, true, true, 4},
		{"at the last step, end only", 40, 5, false, true, 4},
		{"past the last step, both", 50, 5, true, true, 5},
		{"whole profile and beyond, end only", 0, 60, false, true, 0},
	} {
		wantSteps := 5
		if c.newStart {
			wantSteps++
		}
		if c.newEnd {
			wantSteps++
		}
		for _, op := range []string{"Alloc", "Place"} {
			p, l := build()
			if op == "Alloc" {
				p.Alloc(c.start, 3, c.duration)
			} else {
				// Width 3 fits everywhere, so the search lands on c.start.
				start, depth := p.PlaceDepth(c.start, 3, c.duration)
				if start != c.start || depth != c.startIndex {
					t.Errorf("%s: PlaceDepth = (%d, %d), want (%d, %d)", c.name, start, depth, c.start, c.startIndex)
				}
			}
			l.Alloc(c.start, 3, c.duration)
			if err := sameSteps(p, l); err != nil {
				t.Errorf("%s via %s: %v", c.name, op, err)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Errorf("%s via %s: %v", c.name, op, err)
			}
			if len(p.times) != wantSteps {
				t.Errorf("%s via %s: %d steps, want %d", c.name, op, len(p.times), wantSteps)
			}
		}
	}
}

// TestPropertyMatchesLinear interleaves Place, Alloc, CloneInto and Reset
// on the profile and the oracle and requires the two step functions to
// stay identical step for step with the invariants holding after every
// operation.
func TestPropertyMatchesLinear(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		capacity := 4 + r.Intn(60)
		start := int64(r.Intn(100))
		p := New(capacity, start)
		l := profiletest.NewLinear(capacity, start)
		var pClone Profile
		var lClone profiletest.Linear
		for i := 0; i < 120; i++ {
			width := 1 + r.Intn(capacity)
			dur := int64(1 + r.Intn(40))
			earliest := start + int64(r.Intn(200))
			switch r.Intn(10) {
			case 0: // Alloc at a feasible hole found by EarliestFit
				at := p.EarliestFit(earliest, width, dur)
				if lat := l.EarliestFit(earliest, width, dur); lat != at {
					t.Logf("seed %d op %d: EarliestFit %d vs linear %d", seed, i, at, lat)
					return false
				}
				p.Alloc(at, width, dur)
				l.Alloc(at, width, dur)
			case 1: // CloneInto dirty destinations, continue on the clones
				p.CloneInto(&pClone)
				l.CloneInto(&lClone)
				pClone.CloneInto(p)
				lClone.CloneInto(l)
			case 2: // Reset both to a fresh machine
				capacity = 4 + r.Intn(60)
				start = int64(r.Intn(100))
				p.Reset(capacity, start)
				l.Reset(capacity, start)
			default: // Place
				got := p.Place(earliest, width, dur)
				want := l.Place(earliest, width, dur)
				if got != want {
					t.Logf("seed %d op %d: Place %d vs linear %d", seed, i, got, want)
					return false
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			if err := sameSteps(p, l); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsDetectsCorruption corrupts the representation and
// expects CheckInvariants to notice — the guard that the property and fuzz
// tests are actually asserting something.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Profile {
		r := rng.New(7)
		p := New(16, 0)
		for i := 0; i < 40; i++ {
			p.Place(int64(r.Intn(100)), 1+r.Intn(16), int64(1+r.Intn(30)))
		}
		return p
	}
	if err := build().CheckInvariants(); err != nil {
		t.Fatalf("freshly built profile violates invariants: %v", err)
	}
	for name, corrupt := range map[string]func(p *Profile){
		"ordering": func(p *Profile) { p.times[0] = 1 << 40 },
		"equal":    func(p *Profile) { p.times[len(p.times)/2] = p.times[len(p.times)/2-1] },
		"capacity": func(p *Profile) { p.free[0] = 99 },
		"negative": func(p *Profile) { p.free[len(p.free)/2] = -1 },
		"lengths":  func(p *Profile) { p.free = p.free[:len(p.free)-1] },
		"empty":    func(p *Profile) { p.times, p.free = p.times[:0], p.free[:0] },
	} {
		p := build()
		corrupt(p)
		if err := p.CheckInvariants(); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
}

// TestLongRunKeepsSequence places 20 000 jobs on one profile and its
// oracle — thousands of steps, every tail move and storage growth the
// kernel has — comparing every start and depth as it goes and the whole
// step sequence at intervals and at the end.
func TestLongRunKeepsSequence(t *testing.T) {
	r := rng.New(11)
	p := New(128, 0)
	l := profiletest.NewLinear(128, 0)
	for i := 0; i < 20000; i++ {
		w := 1 + r.Intn(64)
		d := int64(1 + r.Intn(5000))
		// Mostly from the profile start; sometimes from deep inside it.
		var earliest int64
		if r.Intn(4) == 0 {
			earliest = int64(r.Intn(400000))
		}
		want := l.EarliestFit(earliest, w, d)
		l.Alloc(want, w, d)
		got, depth := p.PlaceDepth(earliest, w, d)
		if got != want {
			t.Fatalf("op %d: Place %d vs linear %d", i, got, want)
		}
		if p.times[depth] != got {
			t.Fatalf("op %d: depth %d is the step at %d, start is %d", i, depth, p.times[depth], got)
		}
		if i%1000 == 999 {
			checkInv(t, p)
			if err := sameSteps(p, l); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if n := len(p.times); n < 4000 {
		t.Fatalf("20000 placements left only %d steps; the long profile was not exercised", n)
	}
}

// TestSteadyStateAllocatesNothing pins the reuse the planner's lane
// relies on: once a profile's storage has grown to its working size,
// rebuilding on it (Reset + Place xN) and cloning onto it allocate
// nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	r := rng.New(5)
	type shape struct {
		w int
		d int64
	}
	jobs := make([]shape, 300)
	for i := range jobs {
		jobs[i] = shape{1 + r.Intn(64), int64(1 + r.Intn(5000))}
	}
	var p Profile
	rebuild := func() {
		p.Reset(128, 0)
		for _, j := range jobs {
			p.Place(0, j.w, j.d)
		}
	}
	rebuild() // warm: grow the storage once
	if n := testing.AllocsPerRun(20, rebuild); n != 0 {
		t.Errorf("Reset + %d placements on warmed storage: %v allocs, want 0", len(jobs), n)
	}
	var dst Profile
	p.CloneInto(&dst) // warm
	if n := testing.AllocsPerRun(20, func() { p.CloneInto(&dst) }); n != 0 {
		t.Errorf("CloneInto warmed storage: %v allocs, want 0", n)
	}
	// A clone that keeps building must settle too: the planner clones the
	// base into its scratch profile and places the whole queue on it.
	step := func() {
		p.CloneInto(&dst)
		for _, j := range jobs[:50] {
			dst.Place(0, j.w, j.d)
		}
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("CloneInto + placements on warmed storage: %v allocs, want 0", n)
	}
}
