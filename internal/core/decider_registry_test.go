package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dynp/internal/job"
	"dynp/internal/policy"
)

// countingDecider is a minimal stateful decider: it behaves like
// Advanced but counts its decisions, and round-trips the count.
type countingDecider struct {
	calls int
}

func (d *countingDecider) Name() string { return "counting" }

func (d *countingDecider) Decide(old policy.Policy, candidates []policy.Policy, values []float64) policy.Policy {
	d.calls++
	return Advanced{}.Decide(old, candidates, values)
}

func (d *countingDecider) SaveState() ([]byte, error) {
	return json.Marshal(d.calls)
}

func (d *countingDecider) RestoreState(data []byte) error {
	return json.Unmarshal(data, &d.calls)
}

func TestRegisterDecider(t *testing.T) {
	if err := RegisterDecider("counting", func() Decider { return &countingDecider{} }); err != nil {
		t.Fatalf("RegisterDecider: %v", err)
	}
	a, err := NewDecider("counting")
	if err != nil {
		t.Fatalf("NewDecider(counting): %v", err)
	}
	b, _ := NewDecider("counting")
	if a == b {
		t.Fatal("NewDecider returned a shared instance; stateful deciders need fresh ones")
	}
	// Taken names, nil constructors and name mismatches are refused.
	if err := RegisterDecider("counting", func() Decider { return &countingDecider{} }); err == nil {
		t.Fatal("duplicate RegisterDecider accepted")
	}
	if err := RegisterDecider("", func() Decider { return Simple{} }); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterDecider("x", nil); err == nil {
		t.Fatal("nil constructor accepted")
	}
	if err := RegisterDecider("mismatch", func() Decider { return Simple{} }); err == nil {
		t.Fatal("constructor whose Name differs from the registered name accepted")
	}
}

func TestDeciderNamesListsBuiltinsAndFamilies(t *testing.T) {
	names := DeciderNames()
	for _, want := range []string{"simple", "advanced", "<POLICY>-preferred"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("DeciderNames() = %v, missing %q", names, want)
		}
	}
}

func TestNewDeciderPreferredWorksForRegisteredCustomPolicy(t *testing.T) {
	p := policy.MustFairSize(2, 2)
	d, err := NewDecider(p.Name() + "-preferred")
	if err != nil {
		t.Fatalf("NewDecider: %v", err)
	}
	if d.Name() != "PSBS(a=2,r=2)-preferred" {
		t.Fatalf("Name = %q", d.Name())
	}
	if pref, ok := d.(Preferred); !ok || pref.Policy != policy.Policy(p) {
		t.Fatalf("decider = %#v", d)
	}
}

func TestRegisterDeciderFamily(t *testing.T) {
	parse := func(spec string) (Decider, bool, error) {
		if !strings.HasPrefix(spec, "fam:") {
			return nil, false, nil
		}
		if spec == "fam:bad" {
			return nil, true, fmt.Errorf("bad spec")
		}
		return namedDecider{spec}, true, nil
	}
	if err := RegisterDeciderFamily("fam:<x>", parse); err != nil {
		t.Fatalf("RegisterDeciderFamily: %v", err)
	}
	if err := RegisterDeciderFamily("fam:<x>", parse); err == nil {
		t.Fatal("duplicate family accepted")
	}
	if d, err := NewDecider("fam:ok"); err != nil || d.Name() != "fam:ok" {
		t.Fatalf("family spec: %v, %v", d, err)
	}
	if _, err := NewDecider("fam:bad"); err == nil {
		t.Fatal("claimed-but-malformed family spec accepted")
	}
}

type namedDecider struct{ name string }

func (d namedDecider) Name() string { return d.name }
func (d namedDecider) Decide(old policy.Policy, candidates []policy.Policy, values []float64) policy.Policy {
	return Advanced{}.Decide(old, candidates, values)
}

// TestStatefulDeciderRoundTrip drives a tuner with a stateful decider,
// encodes its state as a checkpoint does, and restores it into a twin: the decider's
// internal state must survive the trip, and mismatched or non-stateful
// configurations must be refused.
func TestStatefulDeciderRoundTrip(t *testing.T) {
	d1 := &countingDecider{}
	st := NewSelfTuner(nil, d1, MetricSLDwA)
	st.Plan(0, 8, nil, []*job.Job{mkJob(1, 0, 1, 1000), mkJob(2, 0, 1, 10)})
	st.Plan(10, 8, nil, []*job.Job{mkJob(1, 0, 1, 1000)})
	if d1.calls != 2 {
		t.Fatalf("calls = %d, want 2", d1.calls)
	}
	data, err := stateJSON(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"decider":"counting"`)) {
		t.Fatalf("state %s does not name the decider", data)
	}

	d2 := &countingDecider{}
	twin := NewSelfTuner(nil, d2, MetricSLDwA)
	if err := restoreJSON(twin, data); err != nil {
		t.Fatal(err)
	}
	if d2.calls != 2 {
		t.Fatalf("restored calls = %d, want 2", d2.calls)
	}
	if twin.Active() != st.Active() {
		t.Fatalf("active %v != %v", twin.Active(), st.Active())
	}

	// A tuner configured with a different decider refuses the state.
	other := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	if err := restoreJSON(other, data); err == nil || !strings.Contains(err.Error(), "counting") {
		t.Fatalf("mismatched decider accepted: %v", err)
	}
}

// TestStatelessDeciderStateBytesUnchanged pins the byte-identity of the
// checkpoint encoding for the built-in stateless deciders: the decider
// fields are omitempty, so pre-registry checkpoints decode and
// re-encode to the same bytes.
func TestStatelessDeciderStateBytesUnchanged(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.Plan(0, 8, nil, []*job.Job{mkJob(1, 0, 1, 1000), mkJob(2, 0, 1, 10)})
	data, err := stateJSON(st)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("decider")) {
		t.Fatalf("stateless decider leaked into state: %s", data)
	}
}
