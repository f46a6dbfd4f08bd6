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

// TestViewsMatchOrder churns one Views over every registered policy and
// requires, after each change, the spliced orders to equal Order's full
// sort of the same jobs — and Covering to claim exactly that slice.
func TestViewsMatchOrder(t *testing.T) {
	policies := registeredPolicies(t)
	r := rng.New(16)
	pool := tiedQueue(r, 300)
	v := NewViews(policies...)
	var live []*job.Job
	for step := 0; step < 2000; step++ {
		if len(pool) > 0 && (len(live) == 0 || r.Intn(5) < 3) {
			j := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			live = append(live, j)
			v.Insert(j)
		} else {
			i := r.Intn(len(live))
			v.Remove(live[i])
			pool = append(pool, live[i])
			live = slices.Delete(live, i, i+1)
		}
		orders := v.Covering(live)
		if orders == nil {
			t.Fatalf("step %d: views do not cover the %d live jobs", step, len(live))
		}
		if step%50 != 0 {
			continue
		}
		for i, p := range policies {
			if want := Order(p, live); !slices.Equal(orders[i], want) {
				t.Fatalf("step %d, %v: view %v, want %v", step, p, ids(orders[i]), ids(want))
			}
		}
	}
}

func TestViewsCoverExactlyTheirJobs(t *testing.T) {
	a := &job.Job{ID: 1, Submit: 0, Width: 1, Estimate: 10}
	b := &job.Job{ID: 2, Submit: 0, Width: 1, Estimate: 5}
	v := NewViews(SJF)
	if got := v.Covering(nil); got == nil || len(got[0]) != 0 {
		t.Fatalf("empty views over an empty queue = %v, want one empty order", got)
	}
	v.Insert(a)
	v.Insert(b)
	if got := v.Covering([]*job.Job{a, b}); got == nil || !slices.Equal(got[0], []*job.Job{b, a}) {
		t.Fatalf("Covering = %v, want [b a]", got)
	}
	twin := *a // same ID, another object: not the job the views hold
	for name, q := range map[string][]*job.Job{
		"subset": {a}, "superset": {a, b, {ID: 3}}, "stranger": {&twin, b},
	} {
		if v.Covering(q) != nil {
			t.Errorf("views claimed to cover a %s of their jobs", name)
		}
	}
	v.Remove(&twin) // not held: ignored
	v.Remove(&job.Job{ID: 9})
	if v.Covering([]*job.Job{a, b}) == nil {
		t.Fatal("removing jobs the views do not hold disturbed them")
	}

	// Re-submitting a live ID replaces the stale job.
	v.Insert(&twin)
	if got := v.Covering([]*job.Job{&twin, b}); got == nil || !slices.Equal(got[0], []*job.Job{b, &twin}) {
		t.Fatalf("after re-submitting ID 1: %v, want [b twin]", got)
	}

	// A nil *Views tracks and covers nothing.
	var none *Views
	none.Remove(a)
	if none.Covering(nil) != nil || none.Covering([]*job.Job{a}) != nil {
		t.Fatal("nil views claimed coverage")
	}
}
