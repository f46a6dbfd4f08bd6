package rms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/vfs"
)

func newDynP() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }

// journalStream runs the first journalOps ops of seeded stream seed
// (decodeStream) through the stream interpreter on a daemon of
// plantest.Capacity processors planning with lockstep SJF-preferred dynP
// drivers, newDynP's, and returns what it leaves: a journal of a dozen
// segments or more, the active one checkpoint-headed, which the
// interpreter restarted from and replayed from genesis to the state it
// held to the naive daemon's. Every journal a replay test reads comes
// from such a stream.
func journalStream(t testing.TB, seed uint64) streamEnd {
	ds := tunerStream(t, plantest.Capacity, func() core.Decider { return core.Preferred{Policy: policy.SJF} })
	return runDeliverLockstep(t, ds, decodeStream(plantest.Stream(seed))[:journalOps])
}

// journalOps is as many ops as a journal test needs: a checkpoint every
// eight events (runDeliverLockstep), and more than the 64 transitions an
// EventTrace's ring holds.
const journalOps = 128

// replayStream replays the journal on fsys, a journalStream's, into a
// fresh newDynP scheduler, from genesis if genesis is set.
func replayStream(fsys vfs.FS, genesis bool) (*Scheduler, *Journal, int, error) {
	return replayJournal(plantest.Capacity, newDynP(), fsys, genesis)
}

// segmentName is the file name of segment seq of a stream's journal, the
// active one if seq is the journal's newest.
func segmentName(fs *memFS, seq int) string {
	if name := fmt.Sprintf("%s.%d", journalPath, seq); fs.files[name] != nil {
		return name
	}
	return journalPath
}

// setRecord replaces record n of the file name on fs with rec, framed as
// given.
func setRecord(t *testing.T, fs *memFS, name string, n int, rec []byte) {
	t.Helper()
	recs := lines(fs.files[name])
	if n >= len(recs) {
		t.Fatalf("%s has %d records, wanted to replace record %d", name, len(recs), n)
	}
	recs[n] = rec
	fs.files[name] = append(bytes.Join(recs, []byte("\n")), '\n')
}

// corruptRecord overwrites record n of the file name on fs with bytes
// that fail the checksum.
func corruptRecord(t *testing.T, fs *memFS, name string, n int) {
	t.Helper()
	setRecord(t, fs, name, n, bytes.Repeat([]byte("x"), len(lines(fs.files[name])[n])))
}

// patchRecord decodes record n of the file name on fs, has patch change
// it, and writes it back with a valid checksum: tampering that only a
// replay's checks can catch.
func patchRecord(t *testing.T, fs *memFS, name string, n int, patch func(l *journalLine)) {
	t.Helper()
	l, ok := decodeRecord(lines(fs.files[name])[n])
	if !ok {
		t.Fatalf("%s: record %d does not decode", name, n)
	}
	patch(&l)
	setRecord(t, fs, name, n, bytes.TrimSuffix(marshalRecord(t, &l), []byte("\n")))
}

// marshalRecord frames l as the journal frames a record, its payload
// json.Marshal's: the reference every appended record is held to.
func marshalRecord(t testing.TB, l *journalLine) []byte {
	t.Helper()
	payload, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(appendChecksum(nil, crc32.Checksum(payload, crcTable)), payload...), '\n')
}

// fingerprint summarises externally visible scheduler state as JSON.
func fingerprint(t testing.TB, s *Scheduler) string {
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

// TestJournalInteriorCorruptionRefused: an event record that fails its
// checksum with valid records behind it was acknowledged to clients, so
// the journal refuses to open rather than truncate it away, and leaves
// the files as they were. The same garbage as the last record is a torn
// tail: recovery truncates it, losing only that event, and replays to
// the state of the stream one op shorter.
func TestJournalInteriorCorruptionRefused(t *testing.T) {
	var ops []streamOp
	for _, k := range encodeShort(t, []string{"submit 2x3", "submit 1x2", "tick +1", "deliver +1", "submit 1x1"}) {
		ops = append(ops, smallOps[k])
	}
	ds := staticStream(t, smallCapacity, policy.FCFS)
	short := runDeliverLockstep(t, ds, ops[:len(ops)-1])
	end := runDeliverLockstep(t, ds, ops)
	recs := lines(end.fs.files[journalPath])
	if !bytes.Equal(short.fs.files[journalPath], append(bytes.Join(recs[:len(recs)-1], []byte("\n")), '\n')) {
		t.Fatalf("the last op did not append one record to the shorter stream's active segment:\n%s", end.fs.files[journalPath])
	}
	refused := 0
	for n := 1; n < len(recs)-1; n++ {
		if l, _ := decodeRecord(recs[n]); l.Event == nil {
			continue // a corrupt checkpoint is the ladder's (TestJournalLadderFallback)
		}
		refused++
		fs := &memFS{files: maps.Clone(end.fs.files)}
		corruptRecord(t, fs, journalPath, n)
		want := fs.key()
		if _, err := OpenJournalFS(fs, journalPath); err == nil {
			t.Fatalf("a journal with record %d of %d corrupt opened", n, len(recs))
		}
		if fs.key() != want {
			t.Errorf("a refused open of a journal with record %d corrupt changed the files", n)
		}
	}
	if refused == 0 {
		t.Fatal("no event record of the active segment has another behind it")
	}

	fs := &memFS{files: maps.Clone(end.fs.files)}
	corruptRecord(t, fs, journalPath, len(recs)-1)
	drv, _, _ := ds.newDriver(new(plantest.Lanes))
	s, j, n, err := replayJournal(smallCapacity, drv, fs, false)
	if err != nil {
		t.Fatalf("replay after a torn tail: %v", err)
	}
	if got := daemonState(t, s); int64(n) != j.Events() || got != short.state {
		t.Errorf("a torn tail replays %d of %d events to\n%v\nthe shorter stream ends at\n%v", n, j.Events(), got, short.state)
	}
}

// TestJournalGenesisReplayDetectsTampering flips a submitted width in the
// genesis segment, which later checkpoints cover, with a recomputed
// checksum, so that only semantic verification can notice: fast replay
// never re-applies those events, and the genesis audit must refuse at
// the first checkpoint.
func TestJournalGenesisReplayDetectsTampering(t *testing.T) {
	fs := journalStream(t, 3).fs
	genesis := segmentName(fs, 0)
	k := slices.IndexFunc(lines(fs.files[genesis]), func(rec []byte) bool { return bytes.Contains(rec, []byte(`"width":`)) })
	if k < 0 {
		t.Fatal("no submission in the genesis segment to tamper with")
	}
	patchRecord(t, fs, genesis, k, func(l *journalLine) {
		if len(l.Event.Subs) > 0 {
			l.Event.Subs[0].Width++
		} else {
			l.Event.Width++
		}
	})
	if _, _, _, err := replayStream(fs, false); err != nil {
		t.Fatalf("fast replay reads the tampered segment: %v", err)
	}
	if _, _, _, err := replayStream(fs, true); err == nil {
		t.Fatal("tampered journal passed the genesis audit")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("error %q does not mention the checkpoint verification", err)
	}
}

// TestJournalRefusesDuplicateJobs: a checkpoint rewritten (with a valid
// checksum) to list a job twice — a running job again as waiting, or a
// finished job twice — is refused by replay. The engine takes the queues
// it is handed as they are, so this check, made as the checkpoint is
// restored, is the only one on a job listed twice in what is read from
// disk.
func TestJournalRefusesDuplicateJobs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(t *testing.T, cs *checkpointState)
	}{
		{"running job also waiting", func(t *testing.T, cs *checkpointState) {
			if len(cs.Running) == 0 {
				t.Fatal("the checkpoint holds no running job")
			}
			// In submission order, so that nothing but the duplicate is wrong.
			dup := cs.Running[0]
			dup.State, dup.Started = StateWaiting, 0
			at := slices.IndexFunc(cs.Waiting, func(w JobInfo) bool { return w.Submitted > dup.Submitted })
			if at < 0 {
				at = len(cs.Waiting)
			}
			cs.Waiting = slices.Insert(cs.Waiting, at, dup)
		}},
		{"finished job twice", func(t *testing.T, cs *checkpointState) {
			if len(cs.Done) == 0 {
				t.Fatal("the checkpoint holds no finished job")
			}
			cs.Done = append(cs.Done, cs.Done[len(cs.Done)-1])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := journalStream(t, 3).fs
			patchRecord(t, fs, journalPath, 1, func(l *journalLine) {
				if l.Checkpoint == nil {
					t.Fatal("the active segment opens with no checkpoint")
				}
				tc.patch(t, l.Checkpoint)
			})
			if _, _, _, err := replayStream(fs, false); err == nil || !strings.Contains(err.Error(), "twice") {
				t.Fatalf("journal with a patched checkpoint replayed: %v, want a job listed twice", err)
			}
		})
	}
}

// TestJournalHeaderGuards: a journal replays only into a virgin scheduler
// of the capacity and driver that wrote it, a file without a valid header
// is not a journal, and a journal of an older format version is refused
// with the manual fix: opening refuses both and leaves the files whole.
// The genesis audit refuses a journal whose headers disagree on it.
func TestJournalHeaderGuards(t *testing.T) {
	fs := journalStream(t, 4).fs
	wide, _ := New(2*plantest.Capacity, newDynP(), 0)
	static, _ := New(plantest.Capacity, &sim.Static{Policy: policy.FCFS}, 0)
	dirty, _ := New(plantest.Capacity, newDynP(), 0)
	if _, err := dirty.Submit(1, 5); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Scheduler
	}{
		{"another capacity", wide},
		{"another driver", static},
		{"a non-virgin scheduler", dirty},
	} {
		j, err := OpenJournalFS(fs, journalPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Replay(tc.s); err == nil {
			t.Errorf("replay into %s accepted", tc.name)
		}
	}

	foreign := []byte(`{"event":{"op":"submit","width":1,"estimate":5}}` + "\n")
	nohdr := &memFS{files: map[string][]byte{journalPath: foreign}}
	if _, err := OpenJournalFS(nohdr, journalPath); err == nil {
		t.Error("headerless file opened as a journal")
	}
	if !bytes.Equal(nohdr.files[journalPath], foreign) {
		t.Errorf("foreign file was changed to %q", nohdr.files[journalPath])
	}

	// A version 2 build wrote the same records but for the version in
	// every segment's header, the genesis segment's included.
	v2 := &memFS{files: maps.Clone(fs.files)}
	for name := range v2.files {
		patchRecord(t, v2, name, 0, func(l *journalLine) { l.Header.Version = 2 })
	}
	want := v2.key()
	if _, err := OpenJournalFS(v2, journalPath); err == nil || !strings.Contains(err.Error(), "format version 2, want 3 (move the old journal aside") {
		t.Errorf("a version 2 journal opened with %v, want the move-aside refusal", err)
	}
	if v2.key() != want {
		t.Error("a refused open of a version 2 journal changed the files")
	}
	// The genesis header alone rewritten: the journal opens on its active
	// segment, but the genesis audit reads every header.
	g2 := &memFS{files: maps.Clone(fs.files)}
	patchRecord(t, g2, segmentName(g2, 0), 0, func(l *journalLine) { l.Header.Version = 2 })
	if _, _, _, err := replayStream(g2, true); err == nil || !strings.Contains(err.Error(), "disagrees with genesis") {
		t.Errorf("genesis replay of a journal with a version 2 genesis header: %v, want a refusal", err)
	}
}

func TestJournalAppendAfterReplayGuard(t *testing.T) {
	j, err := OpenJournalFS(journalStream(t, 5).fs, journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Request{Op: opTick, To: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(plantest.Capacity, newDynP(), 0)
	if _, err := j.Replay(fresh); err == nil {
		t.Error("replay after appends accepted")
	}
}

// deadJournal replays a stream's journal into a scheduler that journals
// on through a file system whose every write fails, and returns it with
// what the stream left.
func deadJournal(t *testing.T) (*Scheduler, streamEnd) {
	end := journalStream(t, 6)
	s, j, _, err := replayStream(vfs.NewFaulty(end.fs, vfs.FaultConfig{Seed: 1, WriteFail: 1}), false)
	if err == nil {
		err = s.SetJournal(j)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s, end
}

// TestJournalWriteErrorFailsOperations: once a write under the journal
// fails, the operation that wrote is refused and changes nothing, and so
// is every later append.
func TestJournalWriteErrorFailsOperations(t *testing.T) {
	s, end := deadJournal(t)
	if _, err := s.Submit(1, 10); err == nil {
		t.Fatal("submit succeeded with a dead journal")
	}
	if got := daemonState(t, s); got != end.state {
		t.Errorf("state mutated despite the journal failure:\n%v\nthe stream left\n%v", got, end.state)
	}
	if err := s.jp.Load().Append(Request{Op: opTick, To: 1 << 40}); err == nil || s.JournalErr() == nil {
		t.Errorf("append after a write error: %v, journal error %v", err, s.JournalErr())
	}
}

// TestJournalActiveSegmentStates holds recovery to each state an active
// segment can be found in beside rotated segments. A segment removed,
// without a valid header, or cut inside its checkpoint record is what an
// older build that published segments in place left when it crashed
// mid-rotation: opening refuses it, names the newest rotated segment to
// move back, and leaves every file's bytes as they were. A segment whose
// checkpoint record is gone but whose events are intact is a journal:
// its events follow the header, and Replay and ReplayGenesis both
// rebuild the state the stream left.
func TestJournalActiveSegmentStates(t *testing.T) {
	end := journalStream(t, 7)
	recs := lines(end.fs.files[journalPath])
	if len(recs) < 3 {
		t.Fatalf("the active segment holds %d records, want a checkpoint and an event behind its header", len(recs))
	}
	if l, ok := decodeRecord(recs[1]); !ok || l.Checkpoint == nil {
		t.Fatal("record 1 of the active segment is no checkpoint")
	}
	rot := 0
	for name := range end.fs.files {
		var seq int
		if _, err := fmt.Sscanf(name, journalPath+".%d", &seq); err == nil {
			rot = max(rot, seq)
		}
	}
	newest := fmt.Sprintf("%s.%d", journalPath, rot)
	head := len(recs[0]) + 1 // the header record and its newline
	for _, tc := range []struct {
		name   string
		change func(files map[string][]byte)
		refuse bool
	}{
		{"removed", func(files map[string][]byte) { delete(files, journalPath) }, true},
		{"no valid header", func(files map[string][]byte) {
			files[journalPath] = append(bytes.Repeat([]byte("x"), len(recs[0])), files[journalPath][len(recs[0]):]...)
		}, true},
		{"cut inside its checkpoint", func(files map[string][]byte) {
			files[journalPath] = files[journalPath][:head+len(recs[1])/2]
		}, true},
		{"checkpoint deleted, events kept", func(files map[string][]byte) {
			files[journalPath] = append(bytes.Join(append([][]byte{recs[0]}, recs[2:]...), []byte("\n")), '\n')
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := &memFS{files: maps.Clone(end.fs.files)}
			tc.change(fs.files)
			if !tc.refuse {
				for _, genesis := range []bool{false, true} {
					s, _, _, err := replayStream(&memFS{files: maps.Clone(fs.files)}, genesis)
					if err != nil {
						t.Fatalf("replay (genesis %v): %v", genesis, err)
					}
					if got := daemonState(t, s); got != end.state {
						t.Errorf("replay (genesis %v) diverges\nlive: %v\ngot:  %v", genesis, end.state, got)
					}
				}
				return
			}
			want := fs.key()
			_, err := OpenJournalFS(fs, journalPath)
			if err == nil {
				t.Fatal("the journal opened")
			}
			if !strings.Contains(err.Error(), newest+",") {
				t.Errorf("the refusal %q does not name the newest rotated segment, %s", err, newest)
			}
			if fs.key() != want {
				t.Error("the refused open changed the files")
			}
		})
	}
}
