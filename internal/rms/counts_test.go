package rms

import (
	"encoding/json"
	"os"
	"path/filepath"
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
// case count is off by one. The genesis audit rebuilds the counts from
// the events and must refuse the checkpoint.
func TestReplayGenesisRefusesTamperedCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(cs *checkpointState)
	}{
		{"transition", func(cs *checkpointState) { cs.Transitions["submit"]++ }},
		{"case", func(cs *checkpointState) {
			var st map[string]json.RawMessage
			var cases map[string]int
			if err := json.Unmarshal(cs.Driver, &st); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(st["cases"], &cases); err != nil || len(cases) == 0 {
				t.Fatalf("no case counts to alter in %s (%v)", cs.Driver, err)
			}
			for label := range cases {
				cases[label]++
				break
			}
			var err error
			if st["cases"], err = json.Marshal(cases); err != nil {
				t.Fatal(err)
			}
			if cs.Driver, err = json.Marshal(st); err != nil {
				t.Fatal(err)
			}
		}},
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
				t.Fatalf("genesis replay of a checkpoint with a tampered %s count: %v, want a divergence", tc.name, err)
			}
		})
	}
}

// TestReplayRestoresObserverCheckpoint replays a journal written by a
// build that checkpointed the event trace's state in an "observers"
// field (testdata/observers-journal: 40 random events on 8 processors,
// SJF-preferred dynP, a checkpoint every 8 events, a 64-event trace
// attached). The field is ignored: the restored scheduler answers as one
// that replayed the fixture from genesis — an audit that verifies each
// of its checkpoints but for the counts they do not carry — and its
// counts start from zero at the newest checkpoint, which carries none. Each of the
// fixture's checkpoints also carries the plan record this build no longer
// writes, the plan in force by job ID: a scheduler restored from one
// plans each waiting job at the start the record gives it, off the
// waiting jobs' own planned starts.
func TestReplayRestoresObserverCheckpoint(t *testing.T) {
	src := filepath.Join("testdata", "observers-journal")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	fixture := &memFS{files: map[string][]byte{}}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fixture.files[e.Name()] = data
	}
	if !strings.Contains(string(fixture.files[journalPath]), `"observers":[{"key":"trace"`) {
		t.Fatal("the fixture's newest checkpoint carries no observer state")
	}

	s, err := New(8, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.AddObserver(NewEventTrace(64))
	jr, err := OpenJournalFS(fixture, journalPath)
	if err == nil {
		_, err = jr.Replay(s)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := replayJournal(8, newDynP(), fixture, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := fingerprint(t, s), fingerprint(t, want); got != w {
		t.Fatalf("restored from the observer checkpoint\n got %s\nwant %s", got, w)
	}

	checked := 0
	for name, data := range fixture.files {
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			l, ok := decodeRecord([]byte(line))
			if !ok || l.Checkpoint == nil {
				continue
			}
			var old struct {
				Checkpoint struct {
					Plan *struct{ Entries []struct{ ID, Start int64 } }
				}
			}
			if err := json.Unmarshal([]byte(line[9:]), &old); err != nil || old.Checkpoint.Plan == nil {
				t.Fatalf("%s: checkpoint without a plan record: %v", name, err)
			}
			planned := make(map[int64]int64)
			for _, pe := range old.Checkpoint.Plan.Entries {
				planned[pe.ID] = pe.Start
			}
			r, err := New(8, newDynP(), 0)
			if err == nil {
				err = r.restoreCheckpoint(l.Checkpoint)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, w := range r.Status().Waiting {
				start, ok := planned[int64(w.ID)]
				if !ok {
					start = NeverStart
				}
				if w.PlannedStart != start {
					t.Errorf("%s: job %d restored with planned start %d, its plan record says %d", name, w.ID, w.PlannedStart, start)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no checkpoint of the fixture has a waiting job")
	}
}
