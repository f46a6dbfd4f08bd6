package rms

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
)

func newDynP() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }

// journaledScheduler returns a scheduler writing to a fresh journal in a
// temp dir.
func journaledScheduler(t *testing.T, capacity int, snapshotEvery int) (*Scheduler, *Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotEvery(snapshotEvery)
	s, err := New(capacity, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	return s, j, path
}

// driveRandomEvents pushes a deterministic pseudo-random mix of every
// external event through the scheduler: submissions, completions,
// cancels, clock advances, capacity failures/restores and atomic
// deliveries — including some the scheduler rejects.
func driveRandomEvents(t *testing.T, s *Scheduler, seed uint64, n int) {
	t.Helper()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2:
			if _, err := s.Submit(1+r.Intn(8), int64(1+r.Intn(80))); err != nil {
				t.Fatal(err)
			}
		case 3:
			st := s.Status()
			if len(st.Running) > 0 {
				id := st.Running[r.Intn(len(st.Running))].ID
				if _, err := s.Complete(id); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			st := s.Status()
			if len(st.Waiting) > 0 {
				id := st.Waiting[r.Intn(len(st.Waiting))].ID
				if err := s.Cancel(id); err != nil {
					t.Fatal(err)
				}
			}
		case 5, 6:
			if err := s.Advance(s.Now() + int64(r.Intn(40))); err != nil {
				t.Fatal(err)
			}
		case 7:
			st := s.Status()
			if free := st.Capacity - st.FailedProcs; free > 1 {
				if err := s.Fail(1 + r.Intn(free-1)); err != nil {
					t.Fatal(err)
				}
			}
		case 8:
			st := s.Status()
			if st.FailedProcs > 0 {
				if err := s.Restore(1 + r.Intn(st.FailedProcs)); err != nil {
					t.Fatal(err)
				}
			}
		case 9:
			subs := []Submission{{Width: 1 + r.Intn(8), Estimate: int64(1 + r.Intn(50))}}
			if r.Intn(4) == 0 {
				// A batch the scheduler rejects (unknown completion):
				// journaled ahead of validation, it must replay into the
				// identical rejection.
				_, err := s.Deliver(s.Now()+int64(r.Intn(10)), []job.ID{99999}, subs)
				if err == nil {
					t.Fatal("unknown completion accepted")
				}
			} else if _, err := s.Deliver(s.Now()+int64(r.Intn(10)), nil, subs); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after event %d: %v", i, err)
		}
	}
}

// fingerprint summarises externally visible scheduler state as JSON.
func fingerprint(t *testing.T, s *Scheduler) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Status   Status
		Report   Report
		Finished []JobInfo
	}{s.Status(), s.Report(), s.Finished()})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func replayFresh(t *testing.T, path string, capacity int) (*Scheduler, *Journal, int, error) {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(capacity, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := j.Replay(s)
	return s, j, n, err
}

// genesisErr is the verdict of a genesis replay of the journal at path
// into a fresh 8-processor scheduler.
func genesisErr(t *testing.T, path string) error {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s, err := New(8, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.ReplayGenesis(s)
	return err
}

// replaysTo replays the journal at path into a fresh scheduler of
// capacity processors, which must land on the fingerprint want, and
// returns the events the replay applied and the count the journal found
// at open.
func replaysTo(t *testing.T, path string, capacity int, want, what string) (int, int64) {
	t.Helper()
	s, j, n, err := replayFresh(t, path, capacity)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer j.Close()
	if got := fingerprint(t, s); got != want {
		t.Errorf("%s diverges\nlive: %s\ngot:  %s", what, want, got)
	}
	return n, j.Events()
}

func TestJournalReplayEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 0xdead, 0xc0ffee} {
		live, j, path := journaledScheduler(t, 16, 5)
		driveRandomEvents(t, live, seed, 120)
		want := fingerprint(t, live)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		if n, _ := replaysTo(t, path, 16, want, fmt.Sprintf("seed %#x: replay", seed)); n == 0 {
			t.Fatalf("seed %#x: no events replayed", seed)
		}
	}
}

func TestJournalInteriorCorruptionRefused(t *testing.T) {
	live, j, path := journaledScheduler(t, 8, 0)
	for i := 0; i < 5; i++ {
		if _, err := live.Submit(1, 10); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Corrupt a middle line. The events after it were acknowledged to
	// clients; truncating them away would silently lose jobs, so the
	// journal must refuse to open rather than "recover".
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	corrupted := append([]string(nil), lines...)
	corrupted[3] = "garbage not json\n"
	if err := os.WriteFile(path, []byte(strings.Join(corrupted, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("journal with interior corruption opened")
	}
	if got, _ := os.ReadFile(path); string(got) != strings.Join(corrupted, "") {
		t.Error("refused open modified the journal file")
	}

	// The same garbage as the *last* line is a torn tail: recoverable by
	// truncation, losing only the final, never-acknowledged event.
	trunc := append([]string(nil), lines[:5]...)
	trunc = append(trunc, "garbage not json\n")
	if err := os.WriteFile(path, []byte(strings.Join(trunc, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	replayed, j2, n, err := replayFresh(t, path, 8)
	if err != nil {
		t.Fatalf("replay after torn-tail garbage: %v", err)
	}
	defer j2.Close()
	if n != 4 {
		t.Errorf("replayed %d events, want 4", n)
	}
	if got := len(replayed.Status().Running) + len(replayed.Status().Waiting); got != 4 {
		t.Errorf("%d jobs after tail recovery, want 4", got)
	}
}

// retamper rewrites one journal record's payload and recomputes its
// checksum, simulating tampering that the per-record CRC cannot catch —
// only checkpoint verification can.
func retamper(t *testing.T, path, old, new string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if len(line) < 10 || !strings.Contains(line, old) {
			continue
		}
		payload := strings.Replace(line[9:], old, new, 1)
		lines[i] = string(encodeRecordPayload(t, payload))
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	return false
}

func encodeRecordPayload(t *testing.T, payload string) []byte {
	t.Helper()
	var l journalLine
	if err := json.Unmarshal([]byte(payload), &l); err != nil {
		t.Fatal(err)
	}
	b, err := encodeRecord(&l)
	if err != nil {
		t.Fatal(err)
	}
	return b[:len(b)-1] // strip the newline; Join re-adds it
}

func TestJournalGenesisReplayDetectsTampering(t *testing.T) {
	live, j, path := journaledScheduler(t, 8, 2)
	driveRandomEvents(t, live, 11, 30)
	j.Close()

	// Flip a submitted width deep in the history — in a rotated segment,
	// where a later checkpoint covers it — with a recomputed checksum, so
	// only semantic verification can notice. Fast replay never re-applies
	// pre-checkpoint events; the genesis audit must catch the divergence.
	if !retamper(t, path+".0", `"width":`, `"width":1`) {
		t.Skip("no submit event in the genesis segment to tamper with")
	}
	if err := genesisErr(t, path); err == nil {
		t.Fatal("tampered journal passed the genesis audit")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("error %q does not mention the checkpoint verification", err)
	}
}

func TestJournalHeaderGuards(t *testing.T) {
	live, j, path := journaledScheduler(t, 8, 0)
	if _, err := live.Submit(2, 10); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Wrong capacity.
	if _, j2, _, err := replayFresh(t, path, 16); err == nil {
		t.Error("capacity-mismatched replay accepted")
	} else {
		j2.Close()
	}

	// Wrong scheduler.
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := New(8, &sim.Static{Policy: policy.FCFS}, 0)
	if _, err := j3.Replay(other); err == nil {
		t.Error("scheduler-mismatched replay accepted")
	}
	j3.Close()

	// Replay into a scheduler that already has state.
	j4, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	dirty, _ := New(8, newDynP(), 0)
	dirty.Submit(1, 5)
	if _, err := j4.Replay(dirty); err == nil {
		t.Error("replay into a non-fresh scheduler accepted")
	}
	j4.Close()

	// A file without a valid header is not ours: refuse to open it
	// rather than truncate someone's data to zero.
	nohdr := filepath.Join(t.TempDir(), "nohdr.journal")
	if err := os.WriteFile(nohdr, []byte(`{"event":{"op":"submit","width":1,"estimate":5}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(nohdr); err == nil {
		t.Error("headerless file opened as a journal")
	}
	if data, err := os.ReadFile(nohdr); err != nil || len(data) == 0 {
		t.Errorf("foreign file was destroyed: %d bytes, %v", len(data), err)
	}
}

func TestJournalAppendAfterReplayGuard(t *testing.T) {
	_, j, path := journaledScheduler(t, 8, 0)
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Append(Event{Op: opTick, To: 5}); err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(8, newDynP(), 0)
	if _, err := j2.Replay(fresh); err == nil {
		t.Error("replay after appends accepted")
	}
}

func TestJournalWriteErrorFailsOperations(t *testing.T) {
	s, j, _ := journaledScheduler(t, 8, 0)
	// Close the file under the journal: the next append must fail, the
	// operation must be rejected, and state must stay unchanged.
	j.f.Close()
	if _, err := s.Submit(1, 10); err == nil {
		t.Fatal("submit succeeded with a dead journal")
	}
	if st := s.Status(); len(st.Waiting)+len(st.Running) != 0 {
		t.Errorf("state mutated despite journal failure: %+v", st)
	}
	// The error is sticky.
	if err := j.Append(Event{Op: opTick, To: 1}); err == nil {
		t.Error("append after write error accepted")
	}
}
