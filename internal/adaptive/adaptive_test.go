package adaptive

import (
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, 8, 3); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(policy.SJF, 0, 3); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := New(policy.SJF, 8, 0); err == nil {
		t.Error("patience 0 accepted")
	}
}

func TestNameIsCanonicalAndResolvable(t *testing.T) {
	fair := policy.MustFairSize(0.5, 2)
	d := Must(fair, 8, 3)
	want := "adaptive(PSBS(a=0.5,r=2),depth=8,patience=3)"
	if d.Name() != want {
		t.Fatalf("Name = %q, want %q", d.Name(), want)
	}
	// The name resolves back through the decider registry, even with the
	// nested parameterized policy name.
	got, err := core.NewDecider(want)
	if err != nil {
		t.Fatalf("NewDecider(%q): %v", want, err)
	}
	ad, ok := got.(*Decider)
	if !ok || ad.Name() != want || ad.Fair().Name() != fair.Name() {
		t.Fatalf("resolved %#v", got)
	}
	// Fresh instance per resolution: stateful deciders must not share.
	if got2, _ := core.NewDecider(want); got2 == got {
		t.Fatal("NewDecider returned a shared adaptive instance")
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"adaptive(SJF,depth=8)",            // missing patience
		"adaptive(SJF,patience=3)",         // missing depth
		"adaptive(SJF,depth=x,patience=3)", // non-integer
		"adaptive(SJF,depth=0,patience=3)", // invalid range
		"adaptive(NOPE,depth=8,patience=3)",
	} {
		if _, err := core.NewDecider(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// Unclaimed specs fall through to the registry's unknown-name error.
	if _, err := core.NewDecider("adaptive-ish"); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Errorf("unclaimed spec: %v", err)
	}
}

func TestPressureSwitchesDecisionRule(t *testing.T) {
	fair := policy.MustFairSize(0, 1)
	d := Must(fair, 4, 2)
	candidates := []policy.Policy{policy.FCFS, policy.SJF, fair}
	// SJF and fair tie the minimum; FCFS (the old policy) is worse.
	values := []float64{2.0, 1.0, 1.0}

	// Calm: the advanced rule picks the first minimal candidate.
	if got := d.Decide(policy.FCFS, candidates, values); got != policy.SJF {
		t.Fatalf("calm decision = %v, want SJF", got)
	}

	// One deep step is below patience: still calm.
	d.Backlog(10)
	if got := d.Decide(policy.FCFS, candidates, values); got != policy.SJF {
		t.Fatalf("below-patience decision = %v, want SJF", got)
	}

	// A shallow step resets the streak; two consecutive deep ones engage
	// pressure mode, where the unfair rule elects the fair policy.
	d.Backlog(1)
	d.Backlog(4)
	d.Backlog(7)
	if got := d.Decide(policy.FCFS, candidates, values); got != fair {
		t.Fatalf("pressure decision = %v, want %v", got, fair)
	}

	// Hysteresis: one shallow step does not leave pressure mode, patience
	// consecutive ones do.
	d.Backlog(0)
	if got := d.Decide(policy.FCFS, candidates, values); got != fair {
		t.Fatalf("single shallow step left pressure mode: %v", got)
	}
	d.Backlog(0)
	if got := d.Decide(policy.FCFS, candidates, values); got != policy.SJF {
		t.Fatalf("post-pressure decision = %v, want SJF", got)
	}

	if snap := d.Snapshot(); snap.Pressure || snap.Unfair != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestNonPlanEventsAreIgnored holds the decider to hearing only its
// tuner's steps: an engine's transitions between scheduling events —
// submissions, a failure and a restore — leave it as it was, and the
// next step's backlog moves it.
func TestNonPlanEventsAreIgnored(t *testing.T) {
	d := Must(policy.SJF, 1, 1)
	eng := engine.New(4, sim.NewDynP(d), 0)
	for id := job.ID(1); id <= 5; id++ {
		eng.Submit(&job.Job{ID: id, Width: 4, Estimate: 10, Runtime: 10})
	}
	eng.FailProcs(1)
	eng.RestoreProcs(1)
	if d.st != (state{}) {
		t.Fatalf("transitions without a step moved the decider: %+v", d.st)
	}
	if err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	if !d.Snapshot().Pressure {
		t.Fatal("a step leaving 4 jobs waiting did not engage pressure at depth 1")
	}
}

func TestStateRoundTrip(t *testing.T) {
	d := Must(policy.SJF, 4, 2)
	// Enter pressure (5,6), leave it again (1,1), then start a new deep
	// streak (9) that is one step short of re-entering.
	for _, q := range []int{5, 6, 1, 1, 9} {
		d.Backlog(q)
	}
	d.Decide(policy.FCFS, []policy.Policy{policy.FCFS, policy.SJF}, []float64{1, 1})
	data, err := d.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	twin := Must(policy.SJF, 4, 2)
	if err := twin.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if d.st != twin.st {
		t.Fatalf("state did not round-trip: %+v vs %+v", d.st, twin.st)
	}
	// Streak internals round-trip too: the twin continues mid-streak —
	// one more deep step completes the pending re-entry.
	if d.st.Pressure {
		t.Fatal("fixture error: pressure should be off at save time")
	}
	twin.Backlog(9)
	if !twin.Snapshot().Pressure {
		t.Fatal("restored streak did not continue")
	}

	if err := twin.RestoreState([]byte("{broken")); err == nil {
		t.Fatal("malformed state accepted")
	}
}
