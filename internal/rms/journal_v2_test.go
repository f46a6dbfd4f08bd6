// Tests for the version-2 journal: the recovery ladder over corrupt
// checkpoints, compaction, and the sticky-error policy under injected
// disk faults. Crashes, and the continuation segment a crashed rotation
// leaves, are the crash enumeration's (crash_test.go).
package rms

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynp/internal/vfs"
)

// corruptSegmentRecord overwrites record n (0-based line) of the given
// segment file with bytes that fail the checksum.
func corruptSegmentRecord(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if n >= len(lines) {
		t.Fatalf("segment %s has %d records, wanted to corrupt %d", path, len(lines), n)
	}
	lines[n] = strings.Repeat("x", len(lines[n])-1) + "\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecordBytes pins the spliced checkpoint record to the
// format: for states with and without each part of a checkpoint, for a
// scheduler restored from a checkpoint (empty history log, full
// history) and for one restored by a ladder fallback, the record
// checkpointRecord frames must be byte for byte encodeRecord's, on disk as
// in memory, so journals move freely between versions that frame either
// way.
func TestCheckpointRecordBytes(t *testing.T) {
	check := func(t *testing.T, s *Scheduler) {
		t.Helper()
		s.mu.Lock()
		cs, err := s.captureCheckpointLocked(42)
		var pieces [][]byte
		if err == nil {
			pieces, err = checkpointRecord(&cs, s.doneLog)
		}
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeRecord(&journalLine{Checkpoint: &cs})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(pieces, nil); !bytes.Equal(got, want) {
			t.Fatalf("spliced checkpoint record differs from encodeRecord's\nspliced: %s\nencoded: %s", got, want)
		}
	}
	// checkDisk re-encodes the newest checkpoint record of the journal at
	// path: decoding and encoding again must give back the same bytes.
	checkDisk := func(t *testing.T, path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("active segment has %d records", len(lines))
		}
		l, ok := decodeRecord(bytes.TrimSuffix(lines[1], []byte("\n")))
		if !ok || l.Checkpoint == nil {
			t.Fatal("active segment's second record is not a valid checkpoint")
		}
		if want, err := encodeRecord(&l); err != nil || !bytes.Equal(lines[1], want) {
			t.Fatalf("checkpoint record on disk is not encodeRecord's (%v)\ndisk:    %s\nencoded: %s", err, lines[1], want)
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
		s, err := New(8, newDynP(), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.AddObserver(NewEventTrace(64)) // adds nothing to the record
		driveRandomEvents(t, s, 0x5eed, 80)
		if failed := s.Status().FailedProcs; failed > 0 {
			if err := s.Restore(failed); err != nil {
				t.Fatal(err)
			}
		}
		submit(t, s, 8, 100)
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
		live, j, path := journaledScheduler(t, 8, 5)
		driveRandomEvents(t, live, 0xabc, 60)
		j.Close()
		checkDisk(t, path)
		s, j1, _, err := replayFresh(t, path, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer j1.Close()
		if s.doneLogged != 0 || len(s.done) == 0 {
			t.Fatalf("restored scheduler logged %d of %d finished jobs before its first checkpoint", s.doneLogged, len(s.done))
		}
		check(t, s)
		if err := s.SetJournal(j1); err != nil {
			t.Fatal(err)
		}
		driveRandomEvents(t, s, 0xdef, 20)
		check(t, s)
		checkDisk(t, path)
	})
	t.Run("after a ladder fallback", func(t *testing.T) {
		live, j, path := journaledScheduler(t, 8, 5)
		driveRandomEvents(t, live, 0xabc, 60)
		j.Close()
		corruptSegmentRecord(t, path, 1)
		s, j1, _, err := replayFresh(t, path, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer j1.Close()
		check(t, s)
	})
}

// TestJournalLadderFallback: a corrupted checkpoint record must not lose
// the journal — replay falls back one checkpoint at a time, and with
// every checkpoint destroyed, all the way to genesis, rebuilding the
// same state each time.
func TestJournalLadderFallback(t *testing.T) {
	live, j, path := journaledScheduler(t, 8, 5)
	driveRandomEvents(t, live, 0xabc, 60)
	want := fingerprint(t, live)
	top := j.Segment()
	if top < 3 {
		t.Fatalf("only %d segments", top)
	}
	total := j.Events()
	j.Close()

	// The journal's event count, set at open (Replay does not move it),
	// must equal Replay's and the live journal's.
	fallback := func(name string) {
		if n, events := replaysTo(t, path, 8, want, name); int64(n) != total || events != total {
			t.Errorf("%s: journal counts %d events at open, replay %d, live journal %d", name, events, n, total)
		}
	}
	// Destroy the newest checkpoint (record 1 of the active segment).
	corruptSegmentRecord(t, path, 1)
	fallback("one-rung fallback")

	// Destroy every checkpoint: only genesis replay remains, and it must
	// still rebuild the identical state.
	for seq := 1; seq < top; seq++ {
		corruptSegmentRecord(t, path+"."+itoa(seq), 1)
	}
	fallback("genesis fallback")
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestJournalCompactAfterLadderFallback: when the active segment's
// checkpoint was corrupt at open, the rung recovery rests on is an older
// segment — compaction after the next durable rotation must leave a
// journal that still replays to the live state.
func TestJournalCompactAfterLadderFallback(t *testing.T) {
	live, j, path := journaledScheduler(t, 8, 5)
	driveRandomEvents(t, live, 0xabc, 60)
	j.Close()
	corruptSegmentRecord(t, path, 1)

	s, j1, _, err := replayFresh(t, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	top := j1.Segment()
	j1.SetSnapshotEvery(5)
	j1.SetKeep(0)
	if err := s.SetJournal(j1); err != nil {
		t.Fatal(err)
	}
	driveRandomEvents(t, s, 0xabd, 20)
	if j1.Segment() == top {
		t.Fatal("no rotation after the fallback")
	}
	if rot, err := j1.rotatedSegments(); err != nil || len(rot) != 0 {
		t.Fatalf("rotated segments %v (%v) remain with SetKeep(0)", rot, err)
	}
	want := fingerprint(t, s)
	j1.Close()
	replaysTo(t, path, 8, want, "replay after compacting a fallen-back journal")
}

// TestJournalCompact: compaction retires segments the newest durable
// checkpoint makes redundant — fast replay keeps working, the genesis
// audit honestly refuses. With keep=0 nothing but the active segment
// remains, so a restart reads that one segment: the newest checkpoint
// plus the events behind it.
func TestJournalCompact(t *testing.T) {
	for _, keep := range []int{1, 0} {
		t.Run("keep="+itoa(keep), func(t *testing.T) {
			live, j, path := journaledScheduler(t, 8, 5)
			j.SetKeep(keep)
			driveRandomEvents(t, live, 0x777, 80)
			want := fingerprint(t, live)
			top := j.Segment()
			if top < 4 {
				t.Fatalf("only %d segments", top)
			}
			if _, err := os.Stat(path + ".0"); !os.IsNotExist(err) {
				t.Errorf("genesis segment survived SetKeep(%d)", keep)
			}
			rot, err := j.rotatedSegments()
			if err != nil {
				t.Fatal(err)
			}
			if len(rot) > keep {
				t.Errorf("%d rotated segments remain with SetKeep(%d): %v", len(rot), keep, rot)
			}
			j.Close()
			replaysTo(t, path, 8, want, "replay after compaction")

			if err := genesisErr(t, path); err == nil {
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
	path := filepath.Join(t.TempDir(), "events.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotEvery(5)
	j.SetKeep(2)
	s, err := New(8, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	driveRandomEvents(t, s, 0x222, 80)
	want := fingerprint(t, s)
	rot, err := j.rotatedSegments()
	if err != nil {
		t.Fatal(err)
	}
	// Everything below the newest checkpoint is pruned to 2 segments; the
	// segment carrying that checkpoint (and any later ones) also remain.
	if len(rot) > 3 {
		t.Errorf("%d rotated segments remain with keep=2: %v", len(rot), rot)
	}
	j.Close()
	replaysTo(t, path, 8, want, "replay after auto-compaction")
}

// TestJournalStickyFsync is the regression test for the swallowed
// checkpoint fsync: a failed sync — during a checkpoint rotation or an
// explicit Sync — must permanently fail the journal, and with it every
// further mutation, instead of being silently ignored.
func TestJournalStickyFsync(t *testing.T) {
	faulty := vfs.NewFaulty(vfs.OS, vfs.FaultConfig{Seed: 1, SyncFail: 1})
	path := filepath.Join(t.TempDir(), "events.journal")
	j, err := OpenJournalFS(faulty, path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotEvery(3)
	s, err := New(8, newDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetJournal(j); err != nil {
		t.Fatal(err)
	}
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
