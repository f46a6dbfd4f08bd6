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
	// checkpoint-headed one after it; then the genesis segment beside
	// what a crash in the next rotation leaves in the side file: all of
	// it, and its checkpoint torn.
	fs := journalStream(f, 0).fs
	genesis := fs.files[segmentName(fs, 0)]
	f.Add(genesis, []byte(nil))
	f.Add(fs.files[segmentName(fs, 1)], []byte(nil))
	f.Add(genesis[:len(genesis)-11], []byte(nil))            // torn tail
	f.Add([]byte{}, []byte(nil))                             // empty file
	f.Add([]byte("not a journal\n"), []byte(nil))            // foreign file
	f.Add([]byte("00000000 {\"header\":{}}\n"), []byte(nil)) // bad CRC on a header
	next := lines(fs.files[segmentName(fs, 1)])
	side := append(bytes.Join(next[:2], []byte("\n")), '\n')
	f.Add(genesis, side)
	f.Add(genesis, side[:len(side)/2])
	f.Fuzz(func(t *testing.T, data, side []byte) {
		files := map[string][]byte{journalPath: data}
		if len(side) > 0 {
			files[journalPath+sideSuffix] = side
		}
		mem := &memFS{files: files}
		j, err := OpenJournalFS(mem, journalPath)
		if err != nil {
			return // clean refusal is a correct outcome
		}
		defer j.Close()
		// A side file beside the active segment never became a segment,
		// and only a whole header begins one.
		if _, ok := mem.files[journalPath+sideSuffix]; ok {
			t.Fatal("recovery left the side file beside the active segment")
		}
		if recs := splitRecords(data); len(recs) > 0 {
			if l, ok := decodeRecord(recs[0].data); !recs[0].terminated || !ok || l.Header == nil {
				t.Fatalf("an active segment with no whole header opened: %q", data)
			}
		}
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
		// system underneath never fails.
		if err := s.SetJournal(j); err != nil {
			t.Fatalf("a recovered journal attached with %v", err)
		}
		if _, err := s.Submit(1, 10); err != nil {
			t.Fatalf("submit after recovery: %v", err)
		}
		if err := j.Sync(); err != nil {
			t.Fatalf("sync after recovery: %v", err)
		}
	})
}
