package policy

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dynp/internal/job"
	"dynp/internal/rng"
)

func jobs() []*job.Job {
	return []*job.Job{
		{ID: 1, Submit: 0, Width: 8, Estimate: 100, Runtime: 100},
		{ID: 2, Submit: 5, Width: 1, Estimate: 500, Runtime: 400},
		{ID: 3, Submit: 10, Width: 4, Estimate: 50, Runtime: 50},
		{ID: 4, Submit: 15, Width: 2, Estimate: 100, Runtime: 90},
	}
}

func ids(js []*job.Job) []job.ID {
	out := make([]job.ID, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

func equalIDs(a, b []job.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOrderings(t *testing.T) {
	// Estimated areas: job 1 = 800, job 2 = 500, job 3 = 200, job 4 = 200.
	cases := []struct {
		p    Policy
		want []job.ID
	}{
		{FCFS, []job.ID{1, 2, 3, 4}},
		{SJF, []job.ID{3, 1, 4, 2}}, // estimates 50, 100 (submit 0), 100 (submit 15), 500
		{LJF, []job.ID{2, 1, 4, 3}}, // estimates 500, 100, 100, 50
		{SAF, []job.ID{3, 4, 2, 1}}, // area ties 200/200 broken by submit
		{LAF, []job.ID{1, 2, 3, 4}},
	}
	for _, c := range cases {
		got := ids(Order(c.p, jobs()))
		if !equalIDs(got, c.want) {
			t.Errorf("%v order = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestOrderDoesNotMutateInput(t *testing.T) {
	in := jobs()
	before := ids(in)
	Order(SJF, in)
	if !equalIDs(ids(in), before) {
		t.Fatal("Order mutated its input slice")
	}
}

func TestParseAndName(t *testing.T) {
	for _, p := range All {
		got, err := Lookup(p.Name())
		if err != nil || got != p {
			t.Errorf("Lookup(%q) = %v, %v", p.Name(), got, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup accepted junk")
	}
}

// TestLookupErrsInsteadOfPanicking pins the registry fix for the old
// enum's failure mode: an invalid policy reached through an unvalidated
// config path used to panic inside Less mid-plan; now every config path
// resolves names through Lookup, which returns an error at parse time,
// and invalid values cannot be constructed at all.
func TestLookupErrsInsteadOfPanicking(t *testing.T) {
	for _, bad := range []string{"", "Policy(99)", "sjf", " SJF", "SJF ", "PSBS(", "PSBS(a=x,r=2)"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", bad)
		}
	}
	// The error enumerates what is registered, so a typo is actionable.
	_, err := Lookup("SJFF")
	if err == nil || !strings.Contains(err.Error(), "SJF") {
		t.Errorf("Lookup error %v does not list registered names", err)
	}
}

func TestCandidatesArePaperSet(t *testing.T) {
	if len(Candidates) != 3 || Candidates[0] != FCFS || Candidates[1] != SJF || Candidates[2] != LJF {
		t.Fatalf("Candidates = %v", Candidates)
	}
}

type testPolicy struct{ name string }

func (p testPolicy) Name() string            { return p.name }
func (p testPolicy) Less(a, b *job.Job) bool { return TieBreak(a, b) }

type uncomparablePolicy struct{ fn func(a, b *job.Job) bool }

func (p uncomparablePolicy) Name() string            { return "uncomparable" }
func (p uncomparablePolicy) Less(a, b *job.Job) bool { return p.fn(a, b) }

func TestRegister(t *testing.T) {
	p := testPolicy{name: "test-register-ok"}
	if err := Register(p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Idempotent for the identical value.
	if err := Register(p); err != nil {
		t.Fatalf("re-Register identical: %v", err)
	}
	got, err := Lookup("test-register-ok")
	if err != nil || got != Policy(p) {
		t.Fatalf("Lookup after Register = %v, %v", got, err)
	}
	// A different value under a taken name is refused.
	if err := Register(testPolicy{name: "FCFS"}); err == nil {
		t.Fatal("Register shadowing FCFS succeeded")
	}
	if err := Register(nil); err == nil {
		t.Fatal("Register(nil) succeeded")
	}
	if err := Register(testPolicy{}); err == nil {
		t.Fatal("Register with empty name succeeded")
	}
	// Non-comparable implementations would panic as map keys deep in the
	// scheduler; registration is where that is caught.
	if err := Register(uncomparablePolicy{fn: TieBreak}); err == nil {
		t.Fatal("Register accepted a non-comparable implementation")
	}
}

func TestNamesListsBuiltinsAndFamilies(t *testing.T) {
	names := Names()
	for _, want := range []string{"FCFS", "SJF", "LJF", "SAF", "LAF", FairSizeTemplate} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
	}
}

func TestFairSizeLookupRoundTrip(t *testing.T) {
	p := MustFairSize(0.5, 2)
	got, err := Lookup(p.Name())
	if err != nil {
		t.Fatalf("Lookup(%q): %v", p.Name(), err)
	}
	if got != Policy(p) {
		t.Fatalf("Lookup(%q) = %#v, want %#v", p.Name(), got, p)
	}
	if _, err := Lookup("PSBS(a=0.50,r=2)"); err == nil {
		t.Fatal("non-canonical PSBS spec accepted")
	}
	if _, err := NewFairSize(-1, 2); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := NewFairSize(0, 0.5); err == nil {
		t.Fatal("robust < 1 accepted")
	}
}

func TestFairSizeSemantics(t *testing.T) {
	js := jobs() // areas: 800, 500, 200, 200 at submits 0, 5, 10, 15
	// alpha=0, r=1: pure smallest-area-first == SAF.
	if got, want := ids(Order(MustFairSize(0, 1), js)), ids(Order(SAF, js)); !equalIDs(got, want) {
		t.Errorf("FairSize(0,1) = %v, want SAF order %v", got, want)
	}
	// Huge alpha: submission time dominates == FCFS.
	if got, want := ids(Order(MustFairSize(1e12, 1), js)), ids(Order(FCFS, js)); !equalIDs(got, want) {
		t.Errorf("FairSize(1e12,1) = %v, want FCFS order %v", got, want)
	}
	// Robustness: areas 400 and 300 land in the same r=2 bucket (256), so
	// with alpha=0 the earlier submit wins even though its area is larger —
	// estimate noise within a factor of r no longer decides. With r=1 the
	// exact areas decide and the order flips.
	a := &job.Job{ID: 1, Submit: 0, Width: 1, Estimate: 400, Runtime: 1}
	b := &job.Job{ID: 2, Submit: 5, Width: 1, Estimate: 300, Runtime: 1}
	if r2 := MustFairSize(0, 2); !r2.Less(a, b) {
		t.Error("FairSize(0,2): expected bucket tie to favour the earlier submit")
	}
	if r1 := MustFairSize(0, 1); !r1.Less(b, a) {
		t.Error("FairSize(0,1): expected exact areas to favour the smaller job")
	}
}

// TestPropertyTotalOrder checks the comparator contract every registered
// policy must honour for sort.SliceStable and the tuner's incremental
// order views to stay byte-stable: over jobs with distinct IDs, Less is
// irreflexive, antisymmetric, transitive and total (every distinct pair
// orders exactly one way, ending in the Submit/ID tie-break).
func TestPropertyTotalOrder(t *testing.T) {
	policies := append([]Policy{}, All...)
	policies = append(policies,
		MustFairSize(0, 1), MustFairSize(0.5, 2), MustFairSize(8, 4), MustFairSize(1e12, 1))
	r := rng.New(99)
	mk := func() *job.Job {
		return &job.Job{ID: job.ID(1 + r.Intn(10)), Submit: int64(r.Intn(10)),
			Width: 1 + r.Intn(8), Estimate: int64(1 + r.Intn(100)), Runtime: 1}
	}
	for _, p := range policies {
		for trial := 0; trial < 200; trial++ {
			a, b, c := mk(), mk(), mk()
			checkOrderTriple(t, p, a, b, c)
		}
	}
}

// checkOrderTriple asserts the strict-total-order laws on one triple.
func checkOrderTriple(t *testing.T, p Policy, a, b, c *job.Job) {
	t.Helper()
	if p.Less(a, a) {
		t.Fatalf("%v: Less(a,a) true for %v", p.Name(), a)
	}
	if p.Less(a, b) && p.Less(b, a) {
		t.Fatalf("%v: Less not antisymmetric for %v, %v", p.Name(), a, b)
	}
	if a.ID != b.ID && !p.Less(a, b) && !p.Less(b, a) {
		t.Fatalf("%v: distinct jobs unordered: %v, %v", p.Name(), a, b)
	}
	if p.Less(a, b) && p.Less(b, c) && !p.Less(a, c) {
		t.Fatalf("%v: Less not transitive over %v, %v, %v", p.Name(), a, b, c)
	}
}

// FuzzPolicyTotalOrder fuzzes the same laws plus sort determinism: the
// sorted order of a job multiset must not depend on input permutation
// (that equivalence is exactly what lets the tuner splice views instead
// of re-sorting).
func FuzzPolicyTotalOrder(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(5), int64(10), int64(50), int64(100), int64(500), 1, 2, 4)
	f.Add(uint64(7), int64(3), int64(3), int64(3), int64(9), int64(9), int64(9), 8, 8, 8)
	f.Add(uint64(42), int64(0), int64(1), int64(2), int64(1), int64(1), int64(1), 1, 1, 1)
	f.Fuzz(func(t *testing.T, seed uint64, s1, s2, s3, e1, e2, e3 int64, w1, w2, w3 int) {
		norm := func(v int64) int64 {
			if v < 0 {
				v = -v
			}
			return v % 100000
		}
		normW := func(w int) int {
			if w < 0 {
				w = -w
			}
			return 1 + w%1024
		}
		js := []*job.Job{
			{ID: 1, Submit: norm(s1), Width: normW(w1), Estimate: 1 + norm(e1), Runtime: 1},
			{ID: 2, Submit: norm(s2), Width: normW(w2), Estimate: 1 + norm(e2), Runtime: 1},
			{ID: 3, Submit: norm(s3), Width: normW(w3), Estimate: 1 + norm(e3), Runtime: 1},
		}
		r := rng.New(seed)
		policies := append([]Policy{}, All...)
		policies = append(policies,
			MustFairSize(float64(r.Intn(16)), 1+float64(r.Intn(4))),
			MustFairSize(0, 2))
		for _, p := range policies {
			checkOrderTriple(t, p, js[0], js[1], js[2])
			want := ids(Order(p, js))
			perm := []*job.Job{js[1], js[2], js[0]}
			if got := ids(Order(p, perm)); !equalIDs(got, want) {
				t.Fatalf("%v: order depends on input permutation: %v vs %v", p.Name(), got, want)
			}
		}
	})
}

func TestPropertySJFSortedByEstimate(t *testing.T) {
	if err := quick.Check(func(ests []uint16) bool {
		js := make([]*job.Job, len(ests))
		for i, e := range ests {
			js[i] = &job.Job{ID: job.ID(i + 1), Submit: int64(i),
				Width: 1, Estimate: int64(e) + 1, Runtime: 1}
		}
		got := Order(SJF, js)
		return sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].Estimate != got[j].Estimate {
				return got[i].Estimate < got[j].Estimate
			}
			return got[i].Submit <= got[j].Submit
		})
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLJFIsReverseOfSJFByEstimate(t *testing.T) {
	if err := quick.Check(func(ests []uint16) bool {
		js := make([]*job.Job, len(ests))
		for i, e := range ests {
			js[i] = &job.Job{ID: job.ID(i + 1), Submit: 0,
				Width: 1, Estimate: int64(e) + 1, Runtime: 1}
		}
		s, l := Order(SJF, js), Order(LJF, js)
		for i := range s {
			if s[i].Estimate != l[len(l)-1-i].Estimate {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
