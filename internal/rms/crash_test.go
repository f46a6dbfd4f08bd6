package rms

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"

	"dynp/internal/plan/plantest"
)

// A crashLog counts an enumeration's crash points by kind (crashKinds),
// and keeps the state each set of repaired files replayed to.
type crashLog struct {
	kinds    map[string]int
	replayed map[[32]byte][2]string
	// rotations, if set, crashes only the ops that cut a checkpoint, from
	// the sync that seals the segment on, and not recovery's: the
	// checkpoint record is the one record a driver changes, while an
	// event record, and what recovery does, are the same under any
	// driver.
	rotations bool
}

// An inFlight op is one a crash kills the daemon in, with what the stream
// interpreter saw before and after it: the daemon's state (daemonState,
// read only if the op rotated the journal), the journal's files
// (memFS.key) and the events it held.
type inFlight struct {
	req       Request
	sent      []Request // what the naive daemon was sent, req last unless refused
	pre, post [2]string
	files     [2][32]byte
	events    [2]int64
	every     int    // the journal's checkpoint interval
	where     string // the crash point
}

// crashOp kills the daemon before each file operation f.req made, fs.log
// from mark on (from the rotation's sealing sync on, if
// ds.crashes.rotations), and in a write also after its first byte, half
// of it, all but its last byte, and each whole record in it, so that a
// rotation's header write also stops before its checkpoint record. It
// counts each crash point under its kinds and recovers each state it
// leaves once (recoverCrash), but the files the live daemon had before
// or after f.req: the stream interpreter restarted on those, at the end
// of the stream that ended there. Only a rotation's crashes leave files
// that replay to another state, so only then are f.pre, read off the
// files before f.req, and f.post, off the live daemon, needed.
func crashOp(t testing.TB, ds daemonStream, fs *memFS, mark int, f inFlight, live *Scheduler) {
	first := mark
	if r := rotation(fs.log[mark:]); r >= 0 {
		drv, _, _ := ds.newDriver(new(plantest.Lanes))
		s, j, _ := openJournaled(t, ds.capacity, drv, fs.crash(mark, 0), true, f.every)
		j.Close()
		f.pre, f.post = daemonState(t, s), daemonState(t, live)
		if ds.crashes.rotations {
			first = mark + r
		}
	} else if ds.crashes.rotations {
		return
	}
	seen := map[[32]byte]bool{f.files[0]: true, f.files[1]: true}
	for k := first; k < len(fs.log); k++ {
		for _, torn := range tears(fs.log[k]) {
			for _, kind := range crashKinds(fs.log[mark:], k-mark, torn) {
				ds.crashes.kinds[kind]++
			}
			c := fs.crash(k, torn)
			if key := c.key(); !seen[key] {
				seen[key] = true
				f.where = fmt.Sprintf("before file op %d (%s), %d bytes of it written", k, fs.log[k].kind, torn)
				recoverCrash(t, ds, c, f, !ds.crashes.rotations)
			}
		}
	}
}

// tears lists how many bytes of op a crash at it leaves written.
func tears(op fsOp) []int {
	cuts := []int{0}
	if n := len(op.data); n > 1 {
		cuts = append(cuts, 1, n/2, n-1)
		for _, r := range splitRecords(op.data) {
			cuts = append(cuts, int(r.off))
		}
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// rotation returns where in ops a rotation begins, at the sync that
// seals the active segment before its successor is written to the side
// file (Journal.publish), or -1 if ops rotate nothing.
func rotation(ops []fsOp) int {
	if i := slices.IndexFunc(ops, func(op fsOp) bool { return op.name == journalPath+sideSuffix }); i > 0 {
		return i - 1
	}
	return -1
}

// crashKinds names the windows a crash at ops[k], leaving torn bytes of
// it written, falls in: a rotation, from the sync that seals a segment
// on; the one crash between its two renames, which leaves a side file
// and no active segment; and a torn event or checkpoint record.
func crashKinds(ops []fsOp, k, torn int) []string {
	var kinds []string
	if r := rotation(ops); r >= 0 && k >= r {
		kinds = append(kinds, "rotation")
	}
	if op := ops[k]; op.kind == "rename" && op.name == journalPath+sideSuffix {
		kinds = append(kinds, "between renames")
	}
	for _, r := range splitRecords(ops[k].data) {
		if int(r.off) >= torn || torn > int(r.off)+len(r.data) {
			continue
		}
		switch l, _ := decodeRecord(r.data); {
		case l.Event != nil:
			kinds = append(kinds, "torn event")
		case l.Checkpoint != nil:
			kinds = append(kinds, "torn checkpoint")
		}
	}
	return kinds
}

// key is a digest of the files' names and bytes.
func (fs *memFS) key() [32]byte {
	h := sha256.New()
	entries, _ := fs.ReadDir("")
	for _, e := range entries {
		fmt.Fprintf(h, "%s %d\n%s", e.Name(), len(fs.files[e.Name()]), fs.files[e.Name()])
	}
	return [32]byte(h.Sum(nil))
}

// recoverCrash restarts the daemon on the files fs a crash in f.req left
// and holds it to the kill -9 contract of DESIGN §8. The journal opens,
// repairing the files, and must count every acknowledged event and at
// most the one in flight, leave no torn record and no side file, and
// name its active segment after the newest rotated one. Unless these
// files were replayed before, ReplayGenesis and Replay must each rebuild
// the daemon the interpreter held to the naive daemon, before f.req if
// the journal lost it, else after, and then take the rest of the
// stream, f.req again if it was lost and one more submission, to the
// naive daemon's state; and so must a restart on what Replay's daemon
// journaled. With repairs set, recovery's own file operations are
// crashed too, as crashOp crashes the op's, and each crash point
// counted: each must leave the files recovery began on.
func recoverCrash(t testing.TB, ds daemonStream, fs *memFS, f inFlight, repairs bool) {
	defer func() {
		if req, _ := json.Marshal(f.req); t.Failed() {
			t.Logf("the crash: %s in %s", f.where, req)
		}
	}()
	began := fs.key()
	j, err := OpenJournalFS(fs, journalPath)
	if err != nil {
		t.Fatal(err)
	}
	repaired, lost := fs.log, j.Events() == f.events[0]
	rot, err := j.rotatedSegments()
	_, side := fs.files[journalPath+sideSuffix]
	if active := fs.files[journalPath]; err != nil || !lost && j.Events() != f.events[1] || side ||
		len(rot) > 0 && j.Segment() != rot[len(rot)-1]+1 || !bytes.HasSuffix(active, []byte("\n")) {
		t.Fatalf("recovered journal: %d events (the daemon journaled %d, then %d), segment %d after rotated %v (%v), active segment %q, side file left %v",
			j.Events(), f.events[0], f.events[1], j.Segment(), rot, err, active, side)
	}
	j.Close()
	want := f.post
	if lost {
		want = f.pre
	}
	switch key := fs.key(); {
	case key == f.files[0] && lost || key == f.files[1] && !lost:
	case ds.crashes.replayed[key] != [2]string{}:
		if ds.crashes.replayed[key] != want {
			t.Fatalf("the same files replayed to %v before, now want %v", ds.crashes.replayed[key], want)
		}
	default:
		ds.crashes.replayed[key] = want
		probe := Request{Op: "submit", Width: 1, Estimate: 1}
		naive := plantest.NewDaemon(ds.capacity, ds.oracle(), 0)
		for _, req := range append(slices.Clip(f.sent), probe) {
			mirror(naive, req)
		}
		var after [2]string
		for _, mode := range []string{"genesis", "replay", "restart"} {
			drv, _, _ := ds.newDriver(new(plantest.Lanes))
			s, j, n := openJournaled(t, ds.capacity, drv, fs, mode == "genesis", f.every)
			if mode == "restart" {
				want = after
			}
			if got := daemonState(t, s); got != want || int64(n) != j.Events() {
				t.Fatalf("%s: %d of %d events rebuild\n%v\nwant\n%v", mode, n, j.Events(), got, want)
			}
			if mode != "restart" {
				srv := NewServer(s, true)
				if lost {
					if resp := srv.Handle(f.req); resp.OK == tooWide(f.req, ds.capacity) || daemonState(t, s) != f.post {
						t.Fatalf("%s: %+v again after the crash: %s", mode, f.req, resp.Error)
					}
				}
				if resp := srv.Handle(probe); !resp.OK {
					t.Fatalf("%s: %+v after the crash: %s", mode, probe, resp.Error)
				}
				checkDerived(t, s, naive)
				if got := daemonState(t, s); mode == "genesis" {
					after = got
				} else if got != after {
					t.Fatalf("replay took the rest of the stream to\n%v\ngenesis to\n%v", got, after)
				}
			}
			j.Close()
		}
	}
	// Recovery makes at most one file operation, and writes no bytes, so a
	// crash inside it leaves the files it began on.
	for k := 0; repairs && k < len(repaired); k++ {
		for _, torn := range tears(repaired[k]) {
			ds.crashes.kinds["recovery"]++
			if fs.crash(k, torn).key() != began {
				t.Fatalf("a crash in recovery before file op %d (%s), %d bytes of it written, leaves files recovery did not begin on", k, repaired[k].kind, torn)
			}
		}
	}
}

// TestTornGenesisHeaderRestarts kills a daemon's first start before each
// file operation it makes, each write also torn at every length, and
// after its last. The first start creates the journal and publishes the
// genesis header through the side file, so every crash must restart as a
// fresh journal or on the whole header, with no side file left; the
// restart journals on, and replays from genesis. A daemon of another
// configuration must start fresh on the first and refuse the second.
func TestTornGenesisHeaderRestarts(t *testing.T) {
	fs := &memFS{files: map[string][]byte{}}
	_, j, _ := openJournaled(t, 8, newDynP(), fs, false, 3)
	j.Close()
	header := fs.files[journalPath]
	if recs := splitRecords(header); len(recs) != 1 || !recs[0].terminated {
		t.Fatalf("the first start wrote %q, not its header alone", header)
	}
	// crash is what a kill before op k, torn bytes of it written, leaves;
	// past the last op, what the first start left.
	crash := func(k, torn int) *memFS {
		if k == len(fs.log) {
			return &memFS{files: maps.Clone(fs.files)}
		}
		return fs.crash(k, torn)
	}
	starts := map[bool]int{}
	for k := range len(fs.log) + 1 {
		torn := 1
		if k < len(fs.log) && fs.log[k].kind == "write" {
			torn = len(fs.log[k].data)
		}
		for torn := range torn {
			where := fmt.Sprintf("a crash before file op %d, %d bytes of it written", k, torn)
			other := crash(k, torn)
			o, err := OpenJournalFS(other, journalPath)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			got, side := other.files[journalPath], other.files[journalPath+sideSuffix] != nil
			whole := bytes.Equal(got, header)
			if side || !whole && len(got) > 0 {
				t.Fatalf("%s restarts on %q, side file left %v", where, got, side)
			}
			starts[whole]++
			s, err := New(16, newDynP(), 0)
			if err == nil {
				_, err = o.Replay(s)
			}
			if err == nil {
				err = s.SetJournal(o)
			}
			if refused := err != nil; refused != whole {
				t.Fatalf("%s: a 16-processor daemon starts on %q with %v", where, got, err)
			}
			o.Close()

			c := crash(k, torn)
			s, j, n := openJournaled(t, 8, newDynP(), c, false, 3)
			if n != 0 {
				t.Fatalf("%s: replayed %d events", where, n)
			}
			if _, err := s.Submit(2, 50); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			j.Close()
			if got := c.files[journalPath]; !bytes.HasPrefix(got, header) || len(got) == len(header) {
				t.Fatalf("%s: the restart journals %q", where, got)
			}
			s, j, n = openJournaled(t, 8, newDynP(), c, true, 3)
			if n != 1 || len(s.Status().Running) != 1 {
				t.Fatalf("%s: the restarted journal replays %d events to %+v", where, n, s.Status())
			}
			j.Close()
		}
	}
	if starts[false] == 0 || starts[true] == 0 {
		t.Fatalf("%d crashes restart fresh and %d on the whole header: the test proves nothing", starts[false], starts[true])
	}
	t.Logf("%d crashes restart fresh, %d on the whole header", starts[false], starts[true])
}
