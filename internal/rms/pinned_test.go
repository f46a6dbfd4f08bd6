package rms

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// TestDaemonStreamsPinned pins what a daemon answers and what it writes to
// disk, per driver, over the seeded plantest streams: an FNV-64a hash of
// every quote answer (widths 1, 4 and 16 after every event) with every
// Status and Report, and the finished list after each stream; and a hash
// of the bytes of every journal segment, checkpointing every four events.
// A refactor of how the scheduler captures its state must leave both
// unchanged. Each journal must also replay from genesis, every checkpoint
// on the way byte-compared, to the live scheduler's state.
func TestDaemonStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		newDriver      func() sim.Driver
		reads, journal uint64
	}{
		{"static SJF", func() sim.Driver { return &sim.Static{Policy: policy.SJF} }, 0x82dd0ab0673edac1, 0x36ef3ad55acaf9cf},
		{"simple", func() sim.Driver { return sim.NewDynP(core.Simple{}) }, 0x1991f3be6740efe, 0x17b90fbaf931a37c},
		{"advanced", func() sim.Driver { return sim.NewDynP(core.Advanced{}) }, 0x6c761146d623aa3a, 0x61e3f8d68356350e},
		{"SJF-preferred", func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }, 0x991b14020cf22964, 0x7417589345023737},
		{"adaptive", func() sim.Driver { return sim.NewDynP(adaptive.Must(policy.SJF, 4, 2)) }, 0x2ad3bdaf22a9fef9, 0xeeb7a29db4d8aad2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reads, journal := fnv.New64a(), fnv.New64a()
			for seed := uint64(0); seed < 3; seed++ {
				runPinnedStream(t, tc.newDriver, plantest.Stream(seed), reads, journal)
			}
			if got := reads.Sum64(); got != tc.reads {
				t.Errorf("quote answers and reads hash to %#x, pinned %#x", got, tc.reads)
			}
			if got := journal.Sum64(); got != tc.journal {
				t.Errorf("journal segments hash to %#x, pinned %#x", got, tc.journal)
			}
		})
	}
}

// runPinnedStream feeds one stream through a journaled, quote-enabled
// scheduler, hashing its answers into reads and, once the journal is
// closed, every segment file's name and bytes into journal.
func runPinnedStream(t *testing.T, newDriver func() sim.Driver, data []byte, reads, journal hash.Hash64) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "events.journal"))
	if err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotEvery(4)
	s, err := New(plantest.Capacity, newDriver(), 0)
	if err == nil {
		err = s.SetJournal(j)
	}
	if err == nil {
		err = s.EnableQuotes(newDriver)
	}
	if err != nil {
		t.Fatal(err)
	}
	record := func(v any) {
		if err := json.NewEncoder(reads).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		width, est := plantest.SubmitShape(arg)
		sub := []Submission{{Width: width, Estimate: est}}
		st := s.Status()
		var err error
		switch op % 8 {
		case 0, 1, 2:
			_, err = s.Deliver(st.Now, nil, sub)
		case 3:
			_, err = s.Deliver(st.Now+7*int64(arg), nil, nil)
		case 4:
			if n := len(st.Running); n > 0 {
				_, err = s.Deliver(st.Now, []job.ID{st.Running[int(arg)%n].ID}, nil)
			}
		case 5:
			if n := len(st.Waiting); n > 0 {
				if err = s.Cancel(st.Waiting[int(arg)%n].ID); err == nil && arg >= 128 {
					_, err = s.Submit(width, est)
				}
			}
		case 6:
			if eff := st.Capacity - st.FailedProcs; arg%2 == 0 && eff > 0 {
				err = s.Fail(1 + int(arg/2)%eff)
			} else if st.FailedProcs > 0 {
				err = s.Restore(1 + int(arg/2)%st.FailedProcs)
			}
		case 7:
			// A batch at a later instant; every fourth one names a job
			// that does not exist, a rejection journaled with its clock
			// move.
			done := []job.ID{}
			if arg%4 == 0 {
				done = append(done, 1<<40)
			} else if n := len(st.Running); n > 0 {
				if r := st.Running[int(arg)%n]; r.Started+r.Estimate > st.Now+int64(arg) {
					done = append(done, r.ID)
				}
			}
			_, err = s.Deliver(st.Now+int64(arg), done, sub)
		}
		record(errText(err))
		for _, w := range []int{1, 4, 16} {
			qs, err := s.Quote(w, est, 1+int(arg)%3)
			record(qs)
			record(errText(err))
		}
		record(s.Status())
		record(s.Report())
	}
	record(s.Finished())
	want := fingerprint(t, s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = OpenJournal(filepath.Join(dir, "events.journal")); err == nil {
		if s, err = New(plantest.Capacity, newDriver(), 0); err == nil {
			_, err = j.ReplayGenesis(s)
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatalf("genesis replay: %v", err)
	}
	if got := fingerprint(t, s); got != want {
		t.Fatalf("genesis replay diverges\nlive:     %s\nreplayed: %s", want, got)
	}
	segments, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segments {
		b, err := os.ReadFile(filepath.Join(dir, seg.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(journal, "%s %d\n", seg.Name(), len(b))
		journal.Write(b)
	}
}
