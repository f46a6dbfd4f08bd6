package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"dynp/internal/job"
	"dynp/internal/sim"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99 (0.99*100 must not round up to rank 100)", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it, never above p99, and the median when no percentile above the
// median qualifies.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 8, 19} {
		if p := tailPercentile(n); p != 0.5 {
			t.Errorf("tailPercentile(%d) = %v, want the median", n, p)
		}
	}
	for _, n := range []int{20, 21, 110, 999, 1000, 1001, 60000} {
		p := tailPercentile(n)
		if p < 0.5 || p > 0.99 {
			t.Errorf("tailPercentile(%d) = %v out of [0.5, 0.99]", n, p)
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		beyond := n - 1 - int(percentile(s, p)) // samples strictly above the reported one
		if beyond < 10 {
			t.Errorf("n=%d: p=%v leaves %d samples beyond, want >= 10", n, p, beyond)
		}
		if p < 0.99 && beyond > 10 {
			t.Errorf("n=%d: p=%v leaves %d samples beyond; a higher percentile still had 10", n, p, beyond)
		}
	}
}

func TestByQuartileGroupsByKey(t *testing.T) {
	keys := []int{40, 10, 30, 20, 41, 11, 31, 21}
	vals := []float64{4, 1, 3, 2, 4, 1, 3, 2}
	if got, want := byQuartile(keys, vals), [4]float64{1, 2, 3, 4}; got != want {
		t.Errorf("byQuartile = %v, want %v", got, want)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "sim.run", Start: 0, End: 100, Parent: -1},
		{Name: "core.plan", Start: 10, End: 40, Parent: 0},
		{Name: "replay", Start: 40, End: 70, Parent: 0},
		{Name: "plan.base", Start: 45, End: 50, Parent: 2},
		{Name: "plan.place", Start: 50, End: 65, Parent: 2},
		{Name: "core.plan", Start: 80, End: 90, Parent: 0},
		{Name: "sim.run", Start: 100, End: 130, Parent: -1},
		{Name: "core.plan", Start: 105, End: 125, Parent: 6},
	}
	want := map[string]int64{
		"sim.run":    (100 - 30 - 30 - 10) + (30 - 20),
		"core.plan":  30 + 10 + 20,
		"replay":     30 - 5 - 15,
		"plan.base":  5,
		"plan.place": 15,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// streamFixture is a hand-checkable workload: job 2 exhausts its
// estimate, jobs 1 and 3 finish early, jobs 3 and 4 arrive together.
func streamFixture(t *testing.T) (*job.Set, *sim.Result) {
	t.Helper()
	set := &job.Set{Name: "fixture", Machine: 4, Jobs: []*job.Job{
		{ID: 1, Submit: 0, Width: 4, Estimate: 10, Runtime: 5},
		{ID: 2, Submit: 1, Width: 2, Estimate: 7, Runtime: 7},
		{ID: 3, Submit: 2, Width: 2, Estimate: 9, Runtime: 3},
		{ID: 4, Submit: 2, Width: 4, Estimate: 4, Runtime: 2},
	}}
	res, err := sim.Run(set, newDriver(), sim.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	return set, res
}

func TestBuildStreamSendsNoCompletionForExhaustedEstimates(t *testing.T) {
	set, res := streamFixture(t)
	stream := buildStream(set, res)
	if len(stream) != res.Events {
		t.Errorf("%d instants for %d scheduling events", len(stream), res.Events)
	}
	finish := map[job.ID]int64{}
	for _, r := range res.Records {
		finish[r.Job.ID] = r.Finish
	}
	submitted, completed := map[int]bool{}, map[int]bool{}
	last := int64(-1)
	for _, in := range stream {
		if in.t <= last {
			t.Errorf("instants not strictly increasing at t=%d", in.t)
		}
		last = in.t
		for _, i := range in.subs {
			if submitted[i] || set.Jobs[i].Submit != in.t {
				t.Errorf("job %d submitted at t=%d (twice: %v)", set.Jobs[i].ID, in.t, submitted[i])
			}
			submitted[i] = true
		}
		for _, i := range in.done {
			j := set.Jobs[i]
			if completed[i] || finish[j.ID] != in.t {
				t.Errorf("job %d completed at t=%d, finishes at %d", j.ID, in.t, finish[j.ID])
			}
			if j.Runtime == j.Estimate {
				t.Errorf("job %d exhausts its estimate but a completion is sent; the kill sweep must end it", j.ID)
			}
			completed[i] = true
		}
	}
	if len(submitted) != 4 || len(completed) != 3 {
		t.Errorf("submitted %d of 4 jobs, completed %d of the 3 that finish early", len(submitted), len(completed))
	}
	for _, in := range stream {
		if in.t == 2 && !reflect.DeepEqual(in.subs, []int{2, 3}) {
			t.Errorf("same-instant submissions out of order: %v", in.subs)
		}
	}
}

// The oracle rests on two properties: a shifted time origin leaves the
// fingerprint alone, and any moved statistic changes it.
func TestFingerprintIgnoresOriginAndNothingElse(t *testing.T) {
	set, res := streamFixture(t)
	d := newDriver()
	plain, err := sim.Run(set, d)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(plain, d.Stats(), 0)
	if got := fingerprint(res, d.Stats(), 0); got != want {
		t.Errorf("verified run %s, plain run %s", got, want)
	}

	const offset = 123456
	d = newDriver()
	moved, err := sim.Run(translate(set, offset), d)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(moved, d.Stats(), offset); got != want {
		t.Errorf("fingerprint at origin %d is %s, at origin 0 %s", offset, got, want)
	}

	plain.Records[1].Start++
	if fingerprint(plain, d.Stats(), 0) == want {
		t.Error("moving one job's start by a second left the fingerprint unchanged")
	}
	plain.Records[1].Start--
	st := d.Stats()
	st.Switches++
	if fingerprint(plain, st, 0) == want {
		t.Error("one more policy switch left the fingerprint unchanged")
	}
	plain.Events++
	if fingerprint(plain, d.Stats(), 0) == want {
		t.Error("one more scheduling event left the fingerprint unchanged")
	}
}

// Every workload, untraced and traced, at smoke size: an in-process
// server stands in for dynpd. This is what lets tier-1 notice API drift
// in any layer the benchmark calls.
func TestSmoke(t *testing.T) {
	o := options{seed: 7, passes: 1, smoke: true, workDir: t.TempDir()}
	for _, s := range specs {
		s := s.smoke()
		for _, traced := range []bool{false, true} {
			var m *measurement
			var err error
			defs := endToEnd
			if traced {
				defs = perLayer
				m, err = s.trace(o, "")
			} else {
				m, err = s.measure(o)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			out, err := outcomeOf(m, defs)
			if err != nil {
				t.Errorf("%s traced=%v: %v", s.name, traced, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", s.name, traced, out.Failed, out.Attempted, m.errs)
			}
		}
	}
}

func TestOracleRejectsUnknownAndWrongFingerprints(t *testing.T) {
	orc := &oracle{want: map[string]string{"a": "1"}}
	if err := orc.check("a", "1"); err != nil {
		t.Error(err)
	}
	if orc.check("a", "2") == nil || orc.check("b", "1") == nil {
		t.Error("a wrong fingerprint or an unknown key passed the oracle")
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	rendered, err := json.Marshal(contract())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rendered, &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: go run ./benchmark -describe > BENCHMARK.json")
	}
}

// The driver refuses a BENCHMARK.json outside these limits before it
// makes a single run.
func TestContractWithinTheDriversLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef, endToEnd bool) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if endToEnd != (d.Bound > 0) || d.Bound > 0.25 {
			t.Errorf("%s: bound %v (end-to-end metrics need one in (0, 0.25], per-layer metrics none)", d.Name, d.Bound)
		}
	}
	for _, d := range endToEnd {
		check(d, true)
	}
	for _, d := range perLayer {
		check(d, false)
	}
	if !seen["setup_s"] || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("setup_s listed: %v; %d end-to-end and %d per-layer metrics", seen["setup_s"], len(endToEnd), len(perLayer))
	}
	if len(specs) < 2 || len(specs) > 8 {
		t.Errorf("%d workloads", len(specs))
	}
	for _, s := range specs {
		if !name.MatchString(s.name) || seen[s.name] || len(s.why) > 200 {
			t.Errorf("workload %q: malformed, duplicate, or a why of %d characters", s.name, len(s.why))
		}
		seen[s.name] = true
	}
}
