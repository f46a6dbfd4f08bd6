// FuzzJournalRecover throws arbitrary bytes at the journal recovery
// path: whatever is on disk, opening and replaying must either recover a
// consistent scheduler or refuse with an error — never panic, never
// resurrect phantom jobs, never present the same job twice.
package rms

import (
	"bytes"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan/plantest"
)

func FuzzJournalRecover(f *testing.F) {
	// The seeds are segments of a seeded stream's journal (journalStream),
	// each alone as the active segment: the genesis segment, and the
	// checkpoint-headed one after it.
	fs := journalStream(f, 0).fs
	genesis := fs.files[segmentName(fs, 0)]
	f.Add(genesis)
	f.Add(fs.files[segmentName(fs, 1)])
	f.Add(genesis[:len(genesis)-11])            // torn tail
	f.Add([]byte{})                             // empty file
	f.Add([]byte("not a journal\n"))            // foreign file
	f.Add([]byte("00000000 {\"header\":{}}\n")) // bad CRC on a header
	header, err := encodeRecord(&journalLine{Header: &journalHeader{Version: journalVersion,
		Capacity: plantest.Capacity, Scheduler: newDynP().Name()}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := OpenJournalFS(&memFS{files: map[string][]byte{journalPath: data}}, journalPath)
		if err != nil {
			return // clean refusal is a correct outcome
		}
		defer j.Close()
		s, err := New(plantest.Capacity, newDynP(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Replay(s); err != nil {
			return // clean refusal is a correct outcome
		}

		// Recovery succeeded: the scheduler must be internally consistent
		// and present every job at most once across all lifecycle views.
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("recovered scheduler violates invariants: %v", err)
		}
		seen := make(map[job.ID]bool)
		st := s.Status()
		for _, view := range [][]JobInfo{st.Waiting, st.Running, s.Finished()} {
			for _, info := range view {
				if seen[info.ID] {
					t.Fatalf("job %d recovered into two lifecycle states", info.ID)
				}
				seen[info.ID] = true
			}
		}

		// A journal that recovered must also accept new appends: attach it
		// and submit. Only a journal-layer failure is a bug; the file
		// system underneath never fails. The one refusal is of bytes with
		// no record whole that do not begin this daemon's genesis header:
		// they are not what a crash in its first write leaves.
		torn := !bytes.Contains(data, []byte("\n")) && !bytes.HasPrefix(header, data)
		if err := s.SetJournal(j); (err != nil) != torn {
			t.Fatalf("a recovered journal attached with %v", err)
		} else if torn {
			return
		}
		if _, err := s.Submit(1, 10); err != nil {
			t.Fatalf("submit after recovery: %v", err)
		}
		if err := j.Sync(); err != nil {
			t.Fatalf("sync after recovery: %v", err)
		}
	})
}
