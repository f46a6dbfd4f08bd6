package plan

import (
	"testing"

	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
)

// QueueShape names one way of drawing a waiting queue. The shapes are the
// inputs that stress the dominance proof behind BuildInto's search
// bounds. The generators are exported to the oracle tests, which live in
// package plan_test because plantest imports plan.
type QueueShape int

const (
	ShapeRandom     QueueShape = iota // independent widths and estimates
	ShapeFewClasses                   // 3 widths x 3 estimates: heavy ties
	ShapeIdentical                    // one (width, estimate) class
	ShapeDecreasing                   // strictly decreasing estimates: under LJF no bound may fire
	ShapeManyClass                    // far more distinct classes than witness slots: eviction
	ShapeFullWidth                    // every third job as wide as the machine
	NumShapes
)

// ShapedQueue draws n waiting jobs of the given shape for a machine of the
// given capacity, all submitted at or before now.
func ShapedQueue(r *rng.Stream, shape QueueShape, capacity, n int, now int64) []*job.Job {
	waiting := make([]*job.Job, n)
	for i := range waiting {
		width, est := 1+r.Intn(capacity), int64(1+r.Intn(20000))
		switch shape {
		case ShapeFewClasses:
			width = 1 + (capacity-1)*r.Intn(3)/2
			est = []int64{60, 3600, 86400}[r.Intn(3)]
		case ShapeIdentical:
			width, est = 1+capacity/3, 1800
		case ShapeDecreasing:
			est = int64(100 * (n - i))
		case ShapeManyClass:
			width = 1 + i%capacity
			est = int64(50 + 37*((i*7)%(4*witnessSlots)))
		case ShapeFullWidth:
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

// BusyMachine draws running jobs that started before now and fill most of
// the machine, so the profile begins with a saturated head.
func BusyMachine(r *rng.Stream, capacity int, now int64) []Running {
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
	ordered := policy.Order(policy.LJF, ShapedQueue(r, ShapeDecreasing, capacity, 300, now))
	var base Base
	base.Reset(now, capacity, BusyMachine(r, capacity, now))
	prof := base.Profile()
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
