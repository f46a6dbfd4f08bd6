package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"dynp/internal/job"
	"dynp/internal/rng"
)

// drive runs n random self-tuning steps against a tuner and returns the
// decision transcript; identical seeds drive identical step sequences.
func driveTuner(t *testing.T, st *SelfTuner, seed uint64, steps int) []Decision {
	t.Helper()
	r := rng.New(seed)
	var out []Decision
	now := int64(0)
	id := job.ID(1)
	for i := 0; i < steps; i++ {
		now += int64(1 + r.Intn(100))
		waiting := make([]*job.Job, 0, 4)
		for k := 0; k < 1+r.Intn(4); k++ {
			waiting = append(waiting, mkJob(id, now-int64(r.Intn(50)), 1+r.Intn(8), int64(10+r.Intn(400))))
			id++
		}
		st.Plan(now, 16, nil, waiting)
		d, ok := st.LastDecision()
		if !ok {
			t.Fatal("no decision after Plan")
		}
		out = append(out, d)
	}
	return out
}

// stateJSON is the JSON a checkpoint stores of st's decision state.
func stateJSON(st *SelfTuner) ([]byte, error) {
	captured, err := st.CaptureState()
	if err != nil {
		return nil, err
	}
	return json.Marshal(captured)
}

// restoreJSON decodes a checkpoint's JSON into a TunerState and restores
// it into st, as journal recovery does.
func restoreJSON(st *SelfTuner, data []byte) error {
	var decoded TunerState
	if err := json.Unmarshal(data, &decoded); err != nil {
		return err
	}
	return st.RestoreState(decoded)
}

// TestTunerStateRoundTrip: a tuner restored from its state's JSON must
// carry the same active policy and statistics, and — driven by the same
// future events — make exactly the decisions the original would.
func TestTunerStateRoundTrip(t *testing.T) {
	orig := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	orig.EnableTrace()
	driveTuner(t, orig, 77, 25)

	data, err := stateJSON(orig)
	if err != nil {
		t.Fatal(err)
	}
	// The serialised state must be deterministic.
	if again, err := stateJSON(orig); err != nil || !bytes.Equal(data, again) {
		t.Fatalf("the state's JSON is not deterministic (err %v)", err)
	}
	restored := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	restored.EnableTrace()
	if err := restoreJSON(restored, data); err != nil {
		t.Fatal(err)
	}

	if restored.Active() != orig.Active() {
		t.Fatalf("active %v, want %v", restored.Active(), orig.Active())
	}
	if !reflect.DeepEqual(restored.Stats(), orig.Stats()) {
		t.Fatalf("stats %+v, want %+v", restored.Stats(), orig.Stats())
	}
	if !reflect.DeepEqual(restored.Trace(), orig.Trace()) {
		t.Fatal("restored trace differs")
	}
	ld1, _ := orig.LastDecision()
	ld2, _ := restored.LastDecision()
	if !reflect.DeepEqual(ld1, ld2) {
		t.Fatalf("last decision %+v, want %+v", ld2, ld1)
	}

	// Same future: both tuners must decide identically from here on.
	future1 := driveTuner(t, orig, 88, 25)
	future2 := driveTuner(t, restored, 88, 25)
	if !reflect.DeepEqual(future1, future2) {
		t.Fatal("restored tuner diverged from the original on identical events")
	}
}

// TestTunerStateInfValues: ±Inf scores — which a NaN metric score
// canonicalises to — must survive the round trip even though JSON has no
// encoding for them.
func TestTunerStateInfValues(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	st.commit(10, st.candidates[1], []float64{math.Inf(1), 2.5, math.Inf(-1)})
	data, err := stateJSON(st)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	if err := restoreJSON(restored, data); err != nil {
		t.Fatal(err)
	}
	d, ok := restored.LastDecision()
	if !ok || !math.IsInf(d.Values[0], 1) || d.Values[1] != 2.5 || !math.IsInf(d.Values[2], -1) {
		t.Fatalf("restored values %+v", d.Values)
	}
}

// TestTunerStateRejectsForeign: states referencing policies outside the
// candidate set decode, but are refused at restore, leaving the tuner
// untouched; what is not JSON is refused at decode.
func TestTunerStateRejectsForeign(t *testing.T) {
	st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
	for _, bad := range []string{
		`{"active":"SAF"}`,                     // not a candidate
		`{"active":"bogus"}`,                   // not a policy
		`{"active":"SJF","chosen":{"nope":1}}`, // unknown stat key
	} {
		var decoded TunerState
		if err := json.Unmarshal([]byte(bad), &decoded); err != nil {
			t.Errorf("state %q did not decode: %v", bad, err)
			continue
		}
		if err := st.RestoreState(decoded); err == nil {
			t.Errorf("state %q accepted", bad)
		}
	}
	var decoded TunerState
	if err := json.Unmarshal([]byte(`not json`), &decoded); err == nil {
		t.Error("state \"not json\" decoded")
	}
	if st.Active().Name() != "FCFS" || st.Stats().Steps != 0 {
		t.Fatal("failed restore mutated the tuner")
	}
}

// TestTunerStateValue: a captured TunerState is a value. Its JSON decodes
// to a value with the same JSON; neither the tuner it came from nor a
// tuner restored from it changes it by stepping on; and a tuner restored
// from it is the tuner restored from its JSON — same active policy,
// statistics, last decision, trace and decider state, and the same future
// decisions.
func TestTunerStateValue(t *testing.T) {
	newTuner := func() *SelfTuner {
		st := NewSelfTuner(nil, &countingDecider{}, MetricSLDwA)
		st.EnableTrace()
		return st
	}
	orig := newTuner()
	driveTuner(t, orig, 5, 20)
	captured, err := orig.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	data, err := captured.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded TunerState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(decoded); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("the value's JSON %s decodes to a value whose JSON is %s (%v)", data, again, err)
	}

	fromValue, fromBytes := newTuner(), newTuner()
	if err := fromValue.RestoreState(captured); err != nil {
		t.Fatal(err)
	}
	if err := restoreJSON(fromBytes, data); err != nil {
		t.Fatal(err)
	}
	if fromValue.Active() != fromBytes.Active() || !reflect.DeepEqual(fromValue.Stats(), fromBytes.Stats()) ||
		!reflect.DeepEqual(fromValue.Trace(), fromBytes.Trace()) ||
		fromValue.decider.(*countingDecider).calls != fromBytes.decider.(*countingDecider).calls {
		t.Fatal("the tuner restored from the value differs from the one restored from its JSON")
	}
	lv, _ := fromValue.LastDecision()
	lb, _ := fromBytes.LastDecision()
	if !reflect.DeepEqual(lv, lb) {
		t.Fatalf("last decision %+v, from the JSON %+v", lv, lb)
	}

	// Every tuner steps on; the captured value stays what it was.
	driveTuner(t, orig, 6, 10)
	if !reflect.DeepEqual(driveTuner(t, fromValue, 7, 10), driveTuner(t, fromBytes, 7, 10)) {
		t.Fatal("the tuner restored from the value diverged from the one restored from its JSON")
	}
	if again, err := captured.MarshalJSON(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("the captured value changed as the tuners stepped on: %s, was %s (%v)", again, data, err)
	}
	if err := NewSelfTuner(nil, Advanced{}, MetricSLDwA).RestoreState(captured); err == nil {
		t.Fatal("a tuner with another decider took the value")
	}
	if err := NewSelfTuner(nil, Advanced{}, MetricSLDwA).RestoreState(TunerState{}); err == nil {
		t.Fatal("the zero value restored")
	}
}
