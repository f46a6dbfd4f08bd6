package policy

import (
	"slices"
	"sort"
	"testing"

	"dynp/internal/job"
	"dynp/internal/rng"
)

// registeredPolicies resolves every exactly registered policy plus one
// member of the PSBS family (Names also lists family templates, which
// resolve to nothing and are skipped).
func registeredPolicies(t testing.TB) []Policy {
	t.Helper()
	var out []Policy
	for _, name := range append(Names(), "PSBS(a=0.5,r=2)") {
		if p, err := Lookup(name); err == nil {
			out = append(out, p)
		}
	}
	if len(out) < len(All)+1 {
		t.Fatalf("resolved only %d policies from %v", len(out), Names())
	}
	return out
}

// tiedQueue draws n jobs whose widths, estimates and submission times
// come from tiny ranges, so most pairs tie on the policy key and many on
// the submission time too: the final ID comparison decides.
func tiedQueue(r *rng.Stream, n int) []*job.Job {
	q := make([]*job.Job, n)
	for i, id := range r.Perm(n) { // queue position says nothing about the ID
		est := []int64{60, 3600, 86400}[r.Intn(3)]
		q[i] = &job.Job{ID: job.ID(id + 1), Submit: int64(r.Intn(4)),
			Width: 1 << r.Intn(3), Estimate: est, Runtime: est}
	}
	return q
}

// TestOrderMatchesSliceStable pins Order to the implementation it
// replaced — sort.SliceStable over the policy's Less — on queues with
// heavy ties, for every registered policy.
func TestOrderMatchesSliceStable(t *testing.T) {
	r := rng.New(15)
	for _, p := range registeredPolicies(t) {
		for _, n := range []int{0, 1, 2, 19, 20, 21, 64, 400} {
			q := tiedQueue(r, n)
			want := append([]*job.Job(nil), q...)
			sort.SliceStable(want, func(i, j int) bool { return p.Less(want[i], want[j]) })
			if got := Order(p, q); !slices.Equal(got, want) {
				t.Fatalf("%v, %d jobs: Order = %v, want %v", p, n, ids(got), ids(want))
			}
		}
	}
}

// TestViewsMatchOrder churns a queue the way the scheduling engine does
// and syncs one Views over every registered policy with it: submissions
// append at the tail, starts and cancellations remove jobs anywhere, an
// ID is cancelled and re-submitted as a new job at the same instant, jobs
// too wide for a failed machine are withheld and rejoin out of order when
// it recovers, and now and then the queue empties. After every Sync each
// order must equal Order's full sort of the jobs handed in.
func TestViewsMatchOrder(t *testing.T) {
	policies := registeredPolicies(t)
	r := rng.New(16)
	pool := tiedQueue(r, 150)
	v := NewViews(policies...)
	var queue []*job.Job // the engine's waiting queue, in submission order
	widest := 4          // the widest job the machine can run now
	for step := 0; step < 2000; step++ {
		switch op := r.Intn(10); {
		case len(queue) == 0 || op < 4:
			if len(pool) > 0 {
				queue = append(queue, pool[len(pool)-1])
				pool = pool[:len(pool)-1]
			}
		case op < 7: // a start or a cancellation
			i := r.Intn(len(queue))
			pool = append(pool, queue[i])
			queue = slices.Delete(queue, i, i+1)
		case op == 7: // the same ID re-submitted as a new job
			i := r.Intn(len(queue))
			twin := *queue[i]
			queue = append(slices.Delete(queue, i, i+1), &twin)
		case op == 8: // processors fail or come back
			widest = 1 << r.Intn(3)
		case r.Intn(8) == 0:
			pool, queue = append(pool, queue...), nil
		}
		// Like the engine, hand over the queue itself, which the next
		// removal edits in place, unless some job is withheld.
		handed := queue
		if slices.ContainsFunc(queue, func(j *job.Job) bool { return j.Width > widest }) {
			handed = slices.DeleteFunc(slices.Clone(queue), func(j *job.Job) bool { return j.Width > widest })
		}
		orders := v.Sync(handed)
		if len(orders) != len(policies) {
			t.Fatalf("step %d: %d orders for %d policies", step, len(orders), len(policies))
		}
		for i, p := range policies {
			if want := Order(p, handed); !slices.Equal(orders[i], want) {
				t.Fatalf("step %d, %v: view %v, want %v", step, p, ids(orders[i]), ids(want))
			}
		}
	}
}

// TestViewsCoverExactlyTheirJobs walks Sync through each way a queue
// changes between two calls, on a queue small enough to spell out: after
// each call the orders hold exactly the jobs handed in.
func TestViewsCoverExactlyTheirJobs(t *testing.T) {
	a := &job.Job{ID: 1, Submit: 0, Width: 1, Estimate: 10}
	b := &job.Job{ID: 2, Submit: 0, Width: 1, Estimate: 5}
	c := &job.Job{ID: 3, Submit: 1, Width: 1, Estimate: 7}
	twin := *a // ID 1 re-submitted at the same instant: another job
	v := NewViews(SJF, FCFS)
	for _, tc := range []struct {
		name     string
		queue    []*job.Job
		sjf, fcf []*job.Job
	}{
		{"empty", nil, nil, nil},
		{"appended", []*job.Job{a, b}, []*job.Job{b, a}, []*job.Job{a, b}},
		{"appended again", []*job.Job{a, b, c}, []*job.Job{b, c, a}, []*job.Job{a, b, c}},
		{"removed inside", []*job.Job{a, c}, []*job.Job{c, a}, []*job.Job{a, c}},
		{"rejoined out of order", []*job.Job{a, b, c}, []*job.Job{b, c, a}, []*job.Job{a, b, c}},
		{"re-submitted", []*job.Job{b, c, &twin}, []*job.Job{b, c, &twin}, []*job.Job{&twin, b, c}},
		{"emptied", []*job.Job{}, nil, nil},
	} {
		got := v.Sync(tc.queue)
		if !slices.Equal(got[0], tc.sjf) || !slices.Equal(got[1], tc.fcf) {
			t.Fatalf("%s: SJF %v, FCFS %v; want %v, %v", tc.name, ids(got[0]), ids(got[1]), ids(tc.sjf), ids(tc.fcf))
		}
	}

	// A job whose key changed while queued is not at its ordered
	// position: removing it panics rather than corrupt the order.
	v.Sync([]*job.Job{a, b, c})
	a.Estimate = 1
	defer func() {
		if recover() == nil {
			t.Fatal("Sync removed a job that was not at its ordered position")
		}
	}()
	v.Sync([]*job.Job{b, c})
}
