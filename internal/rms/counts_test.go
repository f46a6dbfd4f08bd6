package rms

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dynp/internal/plan/plantest"
)

// metricsOf is what the metrics op of a server over s with trace tr
// answers, with the wall-clock fields zeroed.
func metricsOf(t *testing.T, s *Scheduler, tr *EventTrace) EngineMetrics {
	t.Helper()
	sv := NewServer(s, true)
	sv.Trace = tr
	resp := sv.Handle(Request{Op: "metrics"})
	if !resp.OK || resp.Metrics == nil {
		t.Fatalf("metrics: %s", resp.Error)
	}
	m := *resp.Metrics
	m.PlanNsTotal, m.PlanNsMax = 0, 0
	return m
}

// TestMetricsSurviveReplay: the metrics op answers the same after a fast
// replay from the newest checkpoint as after a genesis replay, which
// re-enacts the whole history the stream interpreter held to the naive
// daemon, but for the wall-clock latencies, because the counts it serves
// are scheduler state. A restarted trace's ring holds the transitions
// replayed since the restart's checkpoint — a suffix of the genesis
// replay's ring, numbered the same.
func TestMetricsSurviveReplay(t *testing.T) {
	fs := journalStream(t, 7).fs
	replayed := func(genesis bool) (EngineMetrics, []TraceEvent) {
		s, err := New(plantest.Capacity, newDynP(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewEventTrace(64)
		s.AddObserver(tr)
		j, err := OpenJournalFS(fs, journalPath)
		if err == nil && genesis {
			_, err = j.ReplayGenesis(s)
		} else if err == nil {
			_, err = j.Replay(s)
		}
		if err != nil {
			t.Fatal(err)
		}
		return metricsOf(t, s, tr), planNsZeroed(tr.Last(0))
	}
	want, wantRing := replayed(true)
	if want.Plans == 0 || len(want.Cases) == 0 || want.Dropped == 0 {
		t.Fatalf("the stream reaches too little: %+v", want)
	}
	got, ring := replayed(false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics %+v after a fast replay, %+v after a genesis replay", got, want)
	}
	if k := len(wantRing) - len(ring); len(ring) == 0 || k <= 0 || !reflect.DeepEqual(ring, wantRing[k:]) {
		t.Errorf("the restarted ring holds %d events %+v, not the last of the genesis replay's %d",
			len(ring), ring, len(wantRing))
	}
}

// planNsZeroed is evs with the wall-clock planning latencies zeroed.
func planNsZeroed(evs []TraceEvent) []TraceEvent {
	for i := range evs {
		evs[i].PlanNs = 0
	}
	return evs
}

// TestReplayGenesisRefusesTamperedCounts rewrites a journaled checkpoint,
// with a valid checksum, so that one transition count or one decision
// case count is off by one, or the transition counts or the decision case
// counts are gone. The genesis audit rebuilds the counts from the events
// and must refuse the checkpoint.
func TestReplayGenesisRefusesTamperedCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(cs *checkpointState)
	}{
		{"transition", func(cs *checkpointState) { cs.Transitions["submit"]++ }},
		{"case", func(cs *checkpointState) {
			patchCases(t, cs, func(cases map[string]int) {
				for label := range cases {
					cases[label]++
					break
				}
			})
		}},
		{"dropped transitions", func(cs *checkpointState) { cs.Transitions = nil }},
		{"dropped cases", func(cs *checkpointState) { patchCases(t, cs, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := journalStream(t, 8).fs
			patchRecord(t, fs, journalPath, 1, func(l *journalLine) {
				if l.Checkpoint == nil {
					t.Fatal("the active segment opens with no checkpoint")
				}
				tc.patch(l.Checkpoint)
			})
			if _, _, _, err := replayStream(fs, true); err == nil || !strings.Contains(err.Error(), "diverges") {
				t.Fatalf("genesis replay of a checkpoint tampered with (%s): %v, want a divergence", tc.name, err)
			}
		})
	}
}

// patchCases has patch change the Table 1 case counts in cs's driver
// state, or with a nil patch deletes them.
func patchCases(t *testing.T, cs *checkpointState, patch func(cases map[string]int)) {
	t.Helper()
	var st map[string]json.RawMessage
	var cases map[string]int
	if err := json.Unmarshal(cs.Driver, &st); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(st["cases"], &cases); err != nil || len(cases) == 0 {
		t.Fatalf("no case counts to alter in %s (%v)", cs.Driver, err)
	}
	if patch == nil {
		delete(st, "cases")
	} else {
		patch(cases)
		b, err := json.Marshal(cases)
		if err != nil {
			t.Fatal(err)
		}
		st["cases"] = b
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	cs.Driver = b
}
