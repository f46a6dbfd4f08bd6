// Tests for the checkpointed journal: the recovery ladder over corrupt
// checkpoints, compaction, and the sticky-error policy under injected
// disk faults. Crashes, rotations' included, are the crash
// enumeration's (crash_test.go).
package rms

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dynp/internal/plan/plantest"
	"dynp/internal/vfs"
)

// TestCheckpointRecordBytes pins the appended checkpoint record to the
// format: for states with and without each part of a checkpoint, for a
// scheduler restored from a checkpoint (empty history log, full
// history) and for one restored by a ladder fallback, the record
// appendCheckpointRecord writes, its history spliced from the log, must be
// byte for byte json.Marshal's framed, on disk as in memory, and must
// read back (checkRecord).
func TestCheckpointRecordBytes(t *testing.T) {
	check := func(t *testing.T, s *Scheduler) {
		t.Helper()
		s.mu.Lock()
		cs, err := s.captureCheckpointLocked(42)
		var got []byte
		if err == nil {
			got = appendCheckpointRecord(nil, &cs, s.doneLog)
		}
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		checkRecord(t, got, &journalLine{Checkpoint: &cs})
	}
	// checkDisk re-encodes the newest checkpoint record of the journal on
	// fs: decoding and encoding again must give back the same bytes.
	checkDisk := func(t *testing.T, fs *memFS) {
		t.Helper()
		recs := lines(fs.files[journalPath])
		if len(recs) < 2 {
			t.Fatalf("active segment has %d records", len(recs))
		}
		l, ok := decodeRecord(recs[1])
		if !ok || l.Checkpoint == nil {
			t.Fatal("active segment's second record is not a valid checkpoint")
		}
		if want := marshalRecord(t, &l); !bytes.Equal(append(recs[1], '\n'), want) {
			t.Fatalf("checkpoint record on disk is not json.Marshal's\ndisk:    %s\nmarshal: %s", recs[1], want)
		}
	}
	submit := func(t *testing.T, s *Scheduler, width int, estimate int64) {
		t.Helper()
		if _, err := s.Submit(width, estimate); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("empty", func(t *testing.T) {
		check(t, newFCFS(t, 8))
	})
	t.Run("live jobs, no history", func(t *testing.T) {
		s := newFCFS(t, 8)
		submit(t, s, 8, 100)
		submit(t, s, 4, 50)
		check(t, s)
	})
	t.Run("history only, no plan", func(t *testing.T) {
		s := newFCFS(t, 8)
		submit(t, s, 8, 100)
		submit(t, s, 2, 10)
		if err := s.Advance(500); err != nil {
			t.Fatal(err)
		}
		if err := s.Fail(8); err != nil { // a drained machine has no plan
			t.Fatal(err)
		}
		check(t, s)
	})
	t.Run("everything, driver state and counts", func(t *testing.T) {
		s, _, _, err := replayStream(journalStream(t, 0).fs, true)
		if err != nil {
			t.Fatal(err)
		}
		s.AddObserver(NewEventTrace(64)) // adds nothing to the record
		if failed := s.Status().FailedProcs; failed > 0 {
			if err := s.Restore(failed); err != nil {
				t.Fatal(err)
			}
		}
		submit(t, s, plantest.Capacity, 100)
		st := s.Status()
		if len(st.Waiting) == 0 || len(st.Running) == 0 || st.Finished == 0 {
			t.Fatalf("state lacks a part: %d waiting, %d running, %d finished", len(st.Waiting), len(st.Running), st.Finished)
		}
		check(t, s)
		// The log grows with the history: one more job finished.
		if err := s.Advance(s.Now() + 100); err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})
	t.Run("restored", func(t *testing.T) {
		fs := journalStream(t, 1).fs
		checkDisk(t, fs)
		s, j, _ := openJournaled(t, plantest.Capacity, newDynP(), fs, false, 1)
		if s.doneLogged != 0 || len(s.done) == 0 {
			t.Fatalf("restored scheduler logged %d of %d finished jobs before its first checkpoint", s.doneLogged, len(s.done))
		}
		check(t, s)
		seg := j.Segment()
		if err := s.Advance(s.Now() + 1); err != nil || j.Segment() == seg {
			t.Fatalf("no checkpoint cut after the restart (%v)", err)
		}
		check(t, s)
		checkDisk(t, fs)
	})
	t.Run("after a ladder fallback", func(t *testing.T) {
		fs := journalStream(t, 1).fs
		corruptRecord(t, fs, journalPath, 1)
		s, _, _, err := replayStream(fs, false)
		if err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})
}

// TestJournalLadderFallback: a corrupted checkpoint record must not lose
// the journal — replay falls back one checkpoint at a time, and with
// every checkpoint destroyed, all the way to genesis, rebuilding the
// state the stream left each time.
func TestJournalLadderFallback(t *testing.T) {
	end := journalStream(t, 2)
	j, err := OpenJournalFS(end.fs, journalPath)
	if err != nil {
		t.Fatal(err)
	}
	top, total := j.Segment(), j.Events()
	if top < 3 {
		t.Fatalf("only %d segments", top)
	}
	// The journal's event count, set at open (Replay does not move it),
	// must equal Replay's and the live journal's.
	fallback := func(name string) {
		s, j, n, err := replayStream(end.fs, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := daemonState(t, s); got != end.state {
			t.Errorf("%s diverges\nlive: %v\ngot:  %v", name, end.state, got)
		}
		if int64(n) != total || j.Events() != total {
			t.Errorf("%s: journal counts %d events at open, replay %d, the stream's journal %d", name, j.Events(), n, total)
		}
	}
	// Destroy the newest checkpoint (record 1 of the active segment).
	corruptRecord(t, end.fs, journalPath, 1)
	fallback("one-rung fallback")

	// Destroy every checkpoint: only genesis replay remains, and it must
	// still rebuild the identical state.
	for seq := 1; seq < top; seq++ {
		corruptRecord(t, end.fs, segmentName(end.fs, seq), 1)
	}
	fallback("genesis fallback")
}

// compactOn replays the journal on fs, a journalStream's, and journals on
// with a checkpoint every event and the rotated segments bounded by keep,
// over ticks more events, each holding the rotated segments to the keep
// newest. It returns the state it ends in.
func compactOn(t *testing.T, fs *memFS, keep, ticks int) [2]string {
	s, j, _ := openJournaled(t, plantest.Capacity, newDynP(), fs, false, 1)
	j.SetKeep(keep)
	for range ticks {
		seg := j.Segment()
		if err := s.Advance(s.Now() + 1); err != nil || j.Segment() != seg+1 {
			t.Fatalf("a tick after segment %d: segment %d (%v)", seg, j.Segment(), err)
		}
		var want []int
		for k := max(seg+1-keep, 0); k <= seg; k++ {
			want = append(want, k)
		}
		if rot, err := j.rotatedSegments(); err != nil || !slices.Equal(rot, want) {
			t.Fatalf("rotated segments %v (%v) with SetKeep(%d) after a checkpoint in segment %d, want %v", rot, err, keep, seg+1, want)
		}
	}
	return daemonState(t, s)
}

// sameReplay holds a fast replay of the journal on fs to the state want.
func sameReplay(t *testing.T, fs *memFS, want [2]string, what string) {
	t.Helper()
	s, _, _, err := replayStream(fs, false)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := daemonState(t, s); got != want {
		t.Errorf("%s diverges\nlive: %v\ngot:  %v", what, want, got)
	}
}

// TestJournalCompactAfterLadderFallback: when the active segment's
// checkpoint was corrupt at open, the rung recovery rests on is an older
// segment — compaction after the next durable rotation must leave a
// journal that still replays to the live state.
func TestJournalCompactAfterLadderFallback(t *testing.T) {
	fs := journalStream(t, 3).fs
	corruptRecord(t, fs, journalPath, 1)
	sameReplay(t, fs, compactOn(t, fs, 0, 1), "replay after compacting a fallen-back journal")
}

// TestJournalCompact: compaction retires segments the newest durable
// checkpoint makes redundant — fast replay keeps working, the genesis
// audit honestly refuses. With keep=0 nothing but the active segment
// remains, so a restart reads that one segment: the newest checkpoint
// plus the events behind it.
func TestJournalCompact(t *testing.T) {
	for _, keep := range []int{1, 0} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			fs := journalStream(t, 4).fs
			if len(fs.files) < 4 {
				t.Fatalf("only %d segments", len(fs.files))
			}
			sameReplay(t, fs, compactOn(t, fs, keep, 1), "replay after compaction")
			if _, _, _, err := replayStream(fs, true); err == nil {
				t.Error("genesis audit succeeded without the genesis segment")
			} else if !strings.Contains(err.Error(), "compacted") {
				t.Errorf("error %q does not mention compaction", err)
			}
		})
	}
}

// TestJournalAutoCompact: with SetKeep, every checkpoint rotation prunes
// the history down to the retention bound automatically.
func TestJournalAutoCompact(t *testing.T) {
	fs := journalStream(t, 5).fs
	sameReplay(t, fs, compactOn(t, fs, 2, 3), "replay after auto-compaction")
}

// TestJournalStickyFsync is the regression test for the swallowed
// checkpoint fsync: a failed sync — of the genesis header, during a
// checkpoint rotation or an explicit Sync — must permanently fail the
// journal, and with it every further mutation, instead of being silently
// ignored.
func TestJournalStickyFsync(t *testing.T) {
	faulty := vfs.NewFaulty(vfs.OS, vfs.FaultConfig{Seed: 1, SyncFail: 1})
	path := filepath.Join(t.TempDir(), "events.journal")
	open := func(fsys vfs.FS) (*Scheduler, *Journal, error) {
		j, err := OpenJournalFS(fsys, path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(8, newDynP(), 0)
		if err == nil {
			_, err = j.Replay(s)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s, j, s.SetJournal(j)
	}
	// The genesis header is published only once synced.
	if _, j, err := open(faulty); err == nil || !strings.Contains(err.Error(), "sync") || j.Err() == nil {
		t.Fatalf("the genesis header's failed sync attached with %v, sticky %v", err, j.Err())
	} else {
		j.Close()
	}
	if _, j, err := open(vfs.OS); err != nil {
		t.Fatal(err)
	} else {
		j.Close()
	}
	s, j, err := open(faulty)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotEvery(3)
	if s.JournalErr() != nil {
		t.Fatalf("journal failed before any sync: %v", s.JournalErr())
	}

	// Drive events until a checkpoint rotation attempts the doomed sync.
	var failed error
	for i := 0; i < 10 && failed == nil; i++ {
		_, err := s.Submit(1, 10)
		failed = s.JournalErr()
		if failed == nil && err != nil {
			t.Fatal(err)
		}
	}
	if failed == nil {
		t.Fatal("checkpoint rotation swallowed the fsync failure")
	}
	if !strings.Contains(failed.Error(), "sync") {
		t.Errorf("sticky error %q does not mention sync", failed)
	}
	// Sticky: every further mutation is refused.
	if _, err := s.Submit(1, 10); err == nil {
		t.Error("mutation accepted on a journal that cannot sync")
	}
	if err := j.Sync(); err == nil {
		t.Error("Sync succeeded on a failed journal")
	}
	j.Close()
}

// TestJournalFaultyWrites: under injected write failures the journal
// turns itself off at the first failure and the scheduler refuses the
// mutation, leaving published state consistent.
func TestJournalFaultyWrites(t *testing.T) {
	faulty := vfs.NewFaulty(vfs.OS, vfs.FaultConfig{Seed: 7, WriteFail: 0.2})
	path := filepath.Join(t.TempDir(), "events.journal")
	j, err := OpenJournalFS(faulty, path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(8, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetJournal(j); err != nil {
		// The header write itself may be the first casualty.
		return
	}
	accepted := 0
	for i := 0; i < 200; i++ {
		if _, err := s.Submit(1, 10); err != nil {
			break
		}
		accepted++
	}
	if s.JournalErr() == nil {
		t.Fatal("200 writes at 20% failure rate all passed")
	}
	// Everything acknowledged before the failure is real state.
	st := s.Status()
	if got := len(st.Waiting) + len(st.Running); got != accepted {
		t.Errorf("%d jobs for %d acknowledged submissions", got, accepted)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	j.Close()
}
