package rms

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
// replay from the newest checkpoint and after a genesis replay as the
// uninterrupted run does, but for the wall-clock latencies, because the
// counts it serves are scheduler state. A restarted trace's ring holds
// the transitions replayed since the restart's checkpoint — a suffix of
// the uninterrupted run's ring, numbered the same — and after a genesis
// replay the whole ring.
func TestMetricsSurviveReplay(t *testing.T) {
	live, j, path := journaledScheduler(t, 8, 7)
	liveTrace := NewEventTrace(64)
	live.AddObserver(liveTrace)
	driveRandomEvents(t, live, 17, 300)
	want, wantRing := metricsOf(t, live, liveTrace), planNsZeroed(liveTrace.Last(0))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Plans == 0 || len(want.Cases) == 0 || want.Dropped == 0 {
		t.Fatalf("the stream reaches too little: %+v", want)
	}

	for _, genesis := range []bool{false, true} {
		jr, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(8, newDynP(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewEventTrace(64)
		s.AddObserver(tr)
		if genesis {
			_, err = jr.ReplayGenesis(s)
		} else {
			_, err = jr.Replay(s)
		}
		jr.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := metricsOf(t, s, tr); !reflect.DeepEqual(got, want) {
			t.Errorf("genesis %v: metrics %+v, the uninterrupted run's %+v", genesis, got, want)
		}
		ring := planNsZeroed(tr.Last(0))
		k := len(wantRing) - len(ring)
		if len(ring) == 0 || k < 0 || !reflect.DeepEqual(ring, wantRing[k:]) || genesis && k != 0 {
			t.Errorf("genesis %v: the restarted ring holds %d events %+v, not the last of the uninterrupted run's %d",
				genesis, len(ring), ring, len(wantRing))
		}
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
			live, j, path := journaledScheduler(t, 8, 20)
			driveRandomEvents(t, live, 5, 60)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
			l, ok := decodeRecord([]byte(lines[1]))
			if !ok || l.Checkpoint == nil {
				t.Fatal("the active segment opens with no checkpoint")
			}
			tc.patch(l.Checkpoint)
			rec, err := encodeRecord(&l)
			if err != nil {
				t.Fatal(err)
			}
			lines[1] = strings.TrimSuffix(string(rec), "\n")
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}

			if err := genesisErr(t, path); err == nil || !strings.Contains(err.Error(), "diverges") {
				t.Fatalf("genesis replay of a checkpoint with a tampered %s count: %v, want a divergence", tc.name, err)
			}
		})
	}
}

// TestReplayRestoresObserverCheckpoint replays a journal written by a
// build that checkpointed the event trace's state in an "observers"
// field (testdata/observers-journal: 40 events of driveRandomEvents seed
// 53 on 8 processors, SJF-preferred dynP, a checkpoint every 8 events, a
// 64-event trace attached). The field is ignored: the restored scheduler
// answers as one that took the same events itself, and its counts start
// from zero at the newest checkpoint, which carries none. Each of the
// fixture's checkpoints also carries the plan record this build no longer
// writes, the plan in force by job ID: a scheduler restored from one
// plans each waiting job at the start the record gives it, off the
// waiting jobs' own planned starts.
func TestReplayRestoresObserverCheckpoint(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "observers-journal")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	active, err := os.ReadFile(filepath.Join(dir, "events.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(active), `"observers":[{"key":"trace"`) {
		t.Fatal("the fixture's newest checkpoint carries no observer state")
	}

	jr, err := OpenJournal(filepath.Join(dir, "events.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	s, err := New(8, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.AddObserver(NewEventTrace(64))
	if _, err := jr.Replay(s); err != nil {
		t.Fatal(err)
	}
	want, err := New(8, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	driveRandomEvents(t, want, 53, 40)
	if got, w := fingerprint(t, s), fingerprint(t, want); got != w {
		t.Fatalf("restored from the observer checkpoint\n got %s\nwant %s", got, w)
	}

	checked := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("%s: checkpoint without a plan record: %v", e.Name(), err)
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
				t.Fatalf("%s: %v", e.Name(), err)
			}
			for _, w := range r.Status().Waiting {
				start, ok := planned[int64(w.ID)]
				if !ok {
					start = NeverStart
				}
				if w.PlannedStart != start {
					t.Errorf("%s: job %d restored with planned start %d, its plan record says %d", e.Name(), w.ID, w.PlannedStart, start)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no checkpoint of the fixture has a waiting job")
	}
}
