// Crash-safe persistence for the online scheduler: a write-ahead event
// journal with periodic checkpoint-restore points, segment rotation and
// per-record checksums.
//
// On-disk format (version 2). A journal is a family of files: the
// active segment at `path` plus zero or more rotated segments at
// `path.<seq>`. Every record is one line of the form
//
//	crc32c-hex(8) SP json LF
//
// where the checksum covers the JSON payload, so any torn, flipped or
// truncated record is detected instead of parsed. The first record of
// every segment is a header pinning the scheduler configuration and the
// segment's sequence number; segment 0 is the genesis segment. Event
// records are written and flushed *before* the event mutates scheduler
// state, so a kill -9 loses at most the un-acknowledged event in
// flight. TestShortStreamsLockstep holds recovery to that: it kills an
// FCFS daemon at every file operation, torn writes included, of every
// short stream, and of recovery's own (DESIGN §8). An event is not
// fsynced until a rotation seals its segment (or Sync or Close), so the
// promise is a process kill's, not a power loss's.
//
// Checkpoints and rotation. Every checkpointEvery events the journal
// cuts a checkpoint: the active segment is flushed and fsynced (sealed),
// and its successor is written whole beside it before either is renamed:
// a header (Checkpoint: true) followed by a checkpoint record — the full
// restorable scheduler state (machine, queues, finished history, driver
// state, transition counts) — goes to the side file `path.next`, which is
// fsynced; then the sealed segment is renamed to `path.<seq>` and the side
// file to `path`. The genesis header is published the same way. So a
// crash leaves the active segment as it was or its successor whole, and
// recovery at open has one rule: a side file beside `path` never became a
// segment and is removed, and one without `path` was synced before a
// rotation's first rename and is renamed in. Restart reads one segment:
// the newest checkpoint plus the events behind it, instead of the whole
// history (see Replay in replay.go). Rotated segments are immutable;
// with SetKeep, each durable rotation retires all but the newest few.
//
// Failure policy. Any write, flush, fsync or rotation failure is sticky:
// the journal permanently refuses further appends, because a journal
// with a hole must not keep growing and an unsynced checkpoint must not
// be trusted. Recovery at open truncates a torn tail of event records in
// the active segment (the crash case) but refuses interior corruption
// that is followed by valid records — truncating there would silently
// discard acknowledged events — and an active segment that is not whole:
// one with no valid header, or whose checkpoint is torn. Beside rotated
// segments, only an older build's crash mid-rotation left one; moving the
// newest rotated segment back to `path` restarts from before it.
package rms

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dynp/internal/vfs"
)

// journalVersion identifies the on-disk format. Version 2 added record
// checksums, segment rotation and restorable checkpoints; version 1
// files are refused (their records carry no checksums to trust).
const journalVersion = 2

// DefaultSnapshotEvery is the default number of events between
// checkpoints (and therefore segment rotations) in the journal.
const DefaultSnapshotEvery = 256

// The external event operations recorded in the journal. They double as
// the protocol op names (see server.go).
const (
	opSubmit  = "submit"
	opDone    = "done"
	opCancel  = "cancel"
	opTick    = "tick"
	opDeliver = "deliver"
	opFail    = "fail"
	opRestore = "restore"
)

// opNames lists every protocol op: the journaled ones above, then those
// that change nothing. The codec hands out the listed string for an op it
// reads, so a request's op costs no allocation.
var opNames = [...]string{opSubmit, opDone, opCancel, opTick, opDeliver, opFail, opRestore,
	"job", "status", "finished", "report", "quote", "policies", "deciders", "trace", "metrics", "health", "ready"}

// journalHeader pins the scheduler configuration a journal belongs to
// and identifies the segment. Checkpoint promises that the segment's
// second record is a checkpoint — the recovery ladder relies on the
// promise to fall back past a corrupted checkpoint record without
// losing the events behind it.
type journalHeader struct {
	Version    int    `json:"version"`
	Capacity   int    `json:"capacity"`
	Scheduler  string `json:"scheduler"`
	Start      int64  `json:"start"` // genesis start time
	Segment    int    `json:"segment"`
	Checkpoint bool   `json:"checkpoint,omitempty"`
}

// checkpointState is the full restorable scheduler state, cut after an
// event applied. Replay restores from the newest valid one; genesis
// replay verifies the rebuilt state against every one it passes.
type checkpointState struct {
	Events  int64           `json:"events"` // events since genesis folded into this state
	Now     int64           `json:"now"`
	NextID  int64           `json:"next_id"`
	Failed  int             `json:"failed"`
	Waiting []JobInfo       `json:"waiting,omitempty"` // engine submission order
	Running []JobInfo       `json:"running,omitempty"` // engine start order
	Done    []JobInfo       `json:"done,omitempty"`    // finish order
	Driver  json.RawMessage `json:"driver,omitempty"`
	// Transitions counts the engine's transitions by kind name, the kinds
	// that occurred (transitionsByName).
	Transitions map[string]int64 `json:"transitions,omitempty"`
}

// journalLine is the JSON payload of one record: exactly one field set.
type journalLine struct {
	Header     *journalHeader   `json:"header,omitempty"`
	Event      *Request         `json:"event,omitempty"` // a journaled op, n and count zero
	Checkpoint *checkpointState `json:"checkpoint,omitempty"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord frames one journal line: checksum, space, payload,
// newline.
func encodeRecord(l *journalLine) ([]byte, error) {
	payload, err := json.Marshal(l)
	if err != nil {
		return nil, err
	}
	buf := appendChecksum(make([]byte, 0, len(payload)+10), crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	return buf, nil
}

// checkpointRecord frames cs as encodeRecord(&journalLine{Checkpoint: cs})
// does, byte for byte, without encoding the finished history again: done
// holds the JSON of cs.Done's jobs, comma-joined (the scheduler's doneLog),
// and is spliced between the encoded head of the checkpoint (events up to
// running) and its tail (driver and transitions). The record comes
// back in pieces, to be written in order.
func checkpointRecord(cs *checkpointState, done []byte) ([][]byte, error) {
	if (len(cs.Done) > 0) != (len(done) > 0) {
		return nil, fmt.Errorf("checkpoint holds %d finished jobs, history log %d bytes", len(cs.Done), len(done))
	}
	// Every field after running is omitempty, so the head alone encodes as
	// the full record's prefix, and the record without its history as that
	// prefix followed by the tail.
	head, rest := *cs, *cs
	head.Done, head.Driver, head.Transitions = nil, nil, nil
	rest.Done = nil
	h, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	r, err := json.Marshal(&rest)
	if err != nil {
		return nil, err
	}
	cut := len(h) - 1 // before the head's closing brace
	if !bytes.HasPrefix(r, h[:cut]) {
		return nil, fmt.Errorf("checkpoint head does not prefix its record")
	}
	payload := [][]byte{[]byte(`{"checkpoint":`), r[:cut]}
	if len(done) > 0 {
		payload = append(payload, []byte(`,"done":[`), done, []byte(`]`))
	}
	payload = append(payload, r[cut:], []byte(`}`))
	crc := uint32(0)
	for _, p := range payload {
		crc = crc32.Update(crc, crcTable, p)
	}
	return append(append([][]byte{appendChecksum(nil, crc)}, payload...), []byte("\n")), nil
}

// appendChecksum appends a record's checksum field: the payload's
// CRC32C as eight hex digits, then a space.
func appendChecksum(buf []byte, crc uint32) []byte {
	sum := [4]byte{byte(crc >> 24), byte(crc >> 16), byte(crc >> 8), byte(crc)}
	return append(hex.AppendEncode(buf, sum[:]), ' ')
}

// recordPayload checks one record line (without its newline) for an
// intact checksum and returns its payload.
func recordPayload(b []byte) ([]byte, bool) {
	if len(b) < 10 || b[8] != ' ' {
		return nil, false
	}
	sum, err := hex.DecodeString(string(b[:8]))
	if err != nil {
		return nil, false
	}
	payload := b[9:]
	crc := crc32.Checksum(payload, crcTable)
	if sum[0] != byte(crc>>24) || sum[1] != byte(crc>>16) || sum[2] != byte(crc>>8) || sum[3] != byte(crc) {
		return nil, false
	}
	return payload, true
}

// decodeRecord validates and decodes one record line (without its
// newline): checksum intact, payload well-formed, exactly one field.
func decodeRecord(b []byte) (journalLine, bool) {
	var l journalLine
	payload, ok := recordPayload(b)
	if !ok {
		return l, false
	}
	if ev := new(Request); parseEventRecord(payload, ev) {
		return journalLine{Event: ev}, true
	}
	if err := json.Unmarshal(payload, &l); err != nil {
		return l, false
	}
	set := 0
	if l.Header != nil {
		set++
	}
	if l.Event != nil {
		set++
	}
	if l.Checkpoint != nil {
		set++
	}
	return l, set == 1
}

// decodeEvent decodes an event record line into a zero ev, as decodeRecord
// would, and reports whether it is one. A canonical record allocates
// nothing but its lists: replay reads every event through it.
func decodeEvent(b []byte, ev *Request) bool {
	if payload, ok := recordPayload(b); ok && parseEventRecord(payload, ev) {
		return true
	}
	l, ok := decodeRecord(b)
	if ok && l.Event != nil {
		*ev = *l.Event
	}
	return ok && l.Event != nil
}

// record is one raw line of a segment file.
type record struct {
	off        int64
	data       []byte // without the newline
	terminated bool   // false for a trailing chunk missing its newline
}

// splitRecords cuts a segment file into its lines. A final unterminated
// chunk — a torn append — is returned with terminated false.
func splitRecords(data []byte) []record {
	var recs []record
	off := int64(0)
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			recs = append(recs, record{off: off, data: data, terminated: false})
			break
		}
		recs = append(recs, record{off: off, data: data[:i], terminated: true})
		off += int64(i) + 1
		data = data[i+1:]
	}
	return recs
}

// segScan is the validated interpretation of one segment file.
type segScan struct {
	seq      int
	header   journalHeader
	headerOK bool
	ckpt     *checkpointState // valid head checkpoint, if any
	badCkpt  bool             // the header promises a checkpoint, and record 1 is there but invalid
	events   []Request        // valid events after the head, in order
	clean    bool             // the events region is fully valid to the end of the file
}

// interpretSegment classifies a segment's records. In repair mode (the
// active segment at open) it additionally decides recovery: a torn tail
// of invalid event records yields a truncation offset, while an invalid
// record *followed by valid records* is interior corruption and an
// error — truncating there would discard acknowledged events. The one
// tolerated casualty is the header-promised checkpoint record, which is
// redundant (rebuildable from older segments) and therefore skipped
// rather than fatal.
func interpretSegment(recs []record, repair bool) (segScan, int64, error) {
	sc := segScan{clean: true}
	truncateAt := int64(-1)
	if len(recs) == 0 {
		sc.clean = false
		return sc, truncateAt, nil
	}
	l, ok := journalLine{}, false
	if recs[0].terminated {
		l, ok = decodeRecord(recs[0].data)
	}
	if !ok || l.Header == nil {
		sc.headerOK = false
		sc.clean = false
		return sc, truncateAt, nil
	}
	sc.header = *l.Header
	sc.headerOK = true
	sc.seq = sc.header.Segment

	// A promised checkpoint that is absent (an older build truncated a
	// torn one and appended on) or invalid leaves sc.ckpt nil: the ladder
	// falls back past it.
	i := 1
	if sc.header.Checkpoint && len(recs) > 1 {
		l1, ok1 := journalLine{}, false
		if recs[1].terminated {
			l1, ok1 = decodeRecord(recs[1].data)
		}
		switch {
		case ok1 && l1.Checkpoint != nil:
			sc.ckpt = l1.Checkpoint
			i = 2
		case ok1:
			// A valid non-checkpoint record where the checkpoint was
			// promised: events start at record 1.
		default:
			i, sc.badCkpt = 2, true
		}
	}

	firstBad := -1
	for ; i < len(recs); i++ {
		sc.events = append(sc.events, Request{})
		if !recs[i].terminated || !decodeEvent(recs[i].data, &sc.events[len(sc.events)-1]) {
			sc.events = sc.events[:len(sc.events)-1]
			firstBad = i
			break
		}
	}
	if firstBad >= 0 {
		sc.clean = false
		if repair {
			for k := firstBad + 1; k < len(recs); k++ {
				if _, okk := decodeRecord(recs[k].data); okk && recs[k].terminated {
					return sc, truncateAt, fmt.Errorf(
						"rms: journal: corrupt record %d is followed by valid records — refusing to truncate acknowledged events (restore the file or move it aside)", firstBad)
				}
			}
			truncateAt = recs[firstBad].off
		}
	}
	return sc, truncateAt, nil
}

// Journal is an append-only write-ahead log of scheduler events with
// checkpoint-rotation. Open one with OpenJournal, rebuild a fresh
// scheduler with Replay (or audit with ReplayGenesis), then attach it
// with Scheduler.SetJournal. Opening walks down the segments once to
// the checkpoint a restart rests on; Replay and the event counts read
// what that walk found. Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	fs   vfs.FS
	path string
	f    vfs.File // active segment
	w    *bufio.Writer

	seg    int            // active segment sequence number
	header *journalHeader // genesis configuration; nil until known
	valid  int64          // validated length of the active segment at open

	appended        bool
	events          int64 // events since genesis folded into the log
	sinceCheckpoint int
	checkpointEvery int
	keep            int // rotated segments auto-compact retains; < 0 keeps all

	// ladder is the recovery ladder found at open, rung first: the newest
	// segment whose head checkpoint is intact (or segment 0), then every
	// segment above it up to the active one. If the walk down stopped
	// short, ladder holds the segments it passed, the active one still
	// last, and ladderErr says why. Replay reads both; the first append
	// drops the ladder, which no longer matches the file.
	ladder    []*segScan
	ladderErr error
	rec       []byte // the event record being appended, reused append after append

	// err is the sticky failure; once set the journal refuses further
	// appends. Set under mu (see fail) but read without it (see Err), so
	// health probes and quotes never queue behind an append or a
	// checkpoint's fsyncs.
	err atomic.Pointer[error]
}

// OpenJournal opens (or creates) the journal at path on the real
// filesystem. See OpenJournalFS.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(vfs.OS, path)
}

// OpenJournalFS opens (or creates) the journal at path on the given
// filesystem — tests and the disk-fault soak inject a vfs.Faulty here.
// It settles a segment publication a crash interrupted (see publish),
// validates the active segment and truncates a torn tail of event
// records left by a crash. Interior corruption followed by valid
// records is refused rather than truncated, and so is an active segment
// that is not whole (see recover).
func OpenJournalFS(fsys vfs.FS, path string) (*Journal, error) {
	j := &Journal{fs: fsys, path: path, checkpointEvery: DefaultSnapshotEvery, keep: -1}
	if err := j.recover(); err != nil {
		if j.f != nil {
			j.f.Close()
		}
		return nil, err
	}
	return j, nil
}

// sideSuffix names the side file, path + sideSuffix, that a segment is
// written whole to before publish renames it to path. It parses as no
// segment number.
const sideSuffix = ".next"

// segPath returns the file name of rotated segment seq.
func (j *Journal) segPath(seq int) string {
	return fmt.Sprintf("%s.%d", j.path, seq)
}

// rotatedSegments lists the rotated segment sequence numbers, sorted
// ascending.
func (j *Journal) rotatedSegments() ([]int, error) {
	seqs, _, _, err := j.listing()
	return seqs, err
}

// listing reads the journal's directory: the rotated segment sequence
// numbers, sorted ascending, and whether the active segment and the side
// file exist.
func (j *Journal) listing() (seqs []int, active, side bool, err error) {
	dir := filepath.Dir(j.path)
	base := filepath.Base(j.path)
	entries, err := j.fs.ReadDir(dir)
	if err != nil {
		return nil, false, false, fmt.Errorf("rms: journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == base:
			active = true
		case name == base+sideSuffix:
			side = true
		case strings.HasPrefix(name, base+"."):
			if seq, err := strconv.Atoi(name[len(base)+1:]); err == nil && seq >= 0 {
				seqs = append(seqs, seq)
			}
		}
	}
	sort.Ints(seqs)
	return seqs, active, side, nil
}

// readSegment scans one rotated segment file.
func (j *Journal) readSegment(seq int) (segScan, error) {
	f, err := j.fs.OpenFile(j.segPath(seq), os.O_RDONLY, 0)
	if err != nil {
		return segScan{}, fmt.Errorf("rms: journal: segment %d: %w", seq, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return segScan{}, fmt.Errorf("rms: journal: segment %d: %w", seq, err)
	}
	sc, _, err := interpretSegment(splitRecords(data), false)
	if err != nil {
		return segScan{}, err
	}
	if sc.headerOK && sc.header.Segment != seq {
		// The file's name and its header disagree; trust neither.
		sc.headerOK = false
		sc.clean = false
	}
	sc.seq = seq
	return sc, nil
}

// recover settles an interrupted publication, opens and validates the
// active segment, truncates a torn tail and reconstructs the event
// accounting. A side file beside the active segment never became a
// segment: it is removed. One without it was synced before the rotation
// that wrote it renamed the sealed segment away: it is renamed in. An
// active segment that is empty or missing beside rotated segments, or
// has no valid header or a torn checkpoint, was left by an older build
// that published segments in place and crashed mid-rotation: it is
// refused (errMidRotation).
func (j *Journal) recover() error {
	rot, active, side, err := j.listing()
	if err != nil {
		return err
	}
	switch {
	case side && active:
		err = j.fs.Remove(j.path + sideSuffix)
	case side:
		err, active = j.fs.Rename(j.path+sideSuffix, j.path), true
	}
	if err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	if !active && len(rot) > 0 {
		return j.errMidRotation(rot)
	}
	if j.f, err = j.fs.OpenFile(j.path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	j.w = bufio.NewWriter(j.f)
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	if len(data) == 0 && len(rot) == 0 {
		return nil // a fresh journal: SetJournal writes its header
	}
	recs := splitRecords(data)
	sc, truncateAt, err := interpretSegment(recs, true)
	switch {
	case err != nil:
		return err
	case !sc.headerOK && len(rot) == 0:
		// Not ours (foreign file, unsupported format) — refuse rather
		// than destroy it.
		return fmt.Errorf("rms: journal %s: no valid header; not a dynpd journal (delete it to start fresh)", j.path)
	case !sc.headerOK || sc.badCkpt && !recs[1].terminated:
		return j.errMidRotation(rot)
	case sc.header.Version != journalVersion:
		return fmt.Errorf("rms: journal %s: format version %d, want %d (move the old journal aside to start fresh)", j.path, sc.header.Version, journalVersion)
	case len(rot) > 0 && sc.header.Segment <= rot[len(rot)-1]:
		return fmt.Errorf("rms: journal %s: active segment %d is not newer than rotated segment %d", j.path, sc.header.Segment, rot[len(rot)-1])
	}
	j.seg = sc.header.Segment
	h := sc.header
	j.header = &h

	end := int64(len(data))
	if truncateAt >= 0 {
		// The scan stopped at the torn tail: what it found is the whole
		// of the repaired prefix, which is clean.
		end, sc.clean = truncateAt, true
		if err := j.f.Truncate(end); err != nil {
			return fmt.Errorf("rms: journal truncate: %w", err)
		}
	}
	if _, err := j.f.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	j.valid = end
	sc.seq = j.seg
	j.findLadder(&sc, rot)
	return nil
}

// errMidRotation refuses an active segment an older build left
// incomplete when it crashed mid-rotation, and names the manual fix.
func (j *Journal) errMidRotation(rot []int) error {
	newest := j.path + ".<N>"
	if len(rot) > 0 {
		newest = j.segPath(rot[len(rot)-1])
	}
	return fmt.Errorf("rms: journal %s: the active segment is missing, empty or torn, as a crash mid-rotation of an older build leaves it; move the newest rotated segment, %s, back to %s to restart from before that rotation", j.path, newest, j.path)
}

// findLadder walks down from the active segment to the rung recovery
// rests on — the newest segment whose head checkpoint is intact, or
// segment 0 — and sets the event counts from the ladder: the rung
// checkpoint's events plus those of every ladder segment. Every segment
// passed must be clean, and each one's predecessor must exist with a
// valid header; a walk that stops short leaves its reason in ladderErr
// for Replay to return, and the counts best effort. rot lists the
// rotated segments, all older than active.
func (j *Journal) findLadder(active *segScan, rot []int) {
	j.ladder = []*segScan{active}
	base := int64(0)
	// rot[next] is the newest rotated segment not yet passed.
	for cur, next := active, len(rot)-1; ; next-- {
		if !cur.clean {
			j.ladderErr = fmt.Errorf("rms: journal: segment %d has corrupt event records not covered by any newer checkpoint — unrecoverable (audit with the rotated segments or move the journal aside)", cur.seq)
			break
		}
		if cur.ckpt != nil {
			base = cur.ckpt.Events
			break
		}
		if cur.seq == 0 {
			break // the genesis segment: a virgin scheduler is the rung
		}
		want := cur.seq - 1
		if next < 0 || rot[next] != want {
			j.ladderErr = fmt.Errorf("rms: journal: segment %d is missing (compacted?) and no newer checkpoint is usable", want)
			break
		}
		sc, err := j.readSegment(want)
		if err != nil {
			j.ladderErr = err
			break
		}
		if !sc.headerOK {
			j.ladderErr = fmt.Errorf("rms: journal: segment %d has no valid header and no newer checkpoint is usable", want)
			break
		}
		cur = &sc
		j.ladder = append(j.ladder, cur)
	}
	slices.Reverse(j.ladder)
	j.sinceCheckpoint = 0
	for _, sc := range j.ladder {
		j.sinceCheckpoint += len(sc.events)
	}
	j.events = base + int64(j.sinceCheckpoint)
}

// Segment returns the active segment's sequence number.
func (j *Journal) Segment() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seg
}

// Events returns the number of events since genesis the journal holds.
func (j *Journal) Events() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// Err returns the journal's sticky failure, if any. A journal with a
// non-nil Err refuses every further append; the daemon's "ready" check
// reports it. Err never waits for the journal's lock.
func (j *Journal) Err() error {
	if p := j.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the journal's sticky failure and returns it.
// Callers hold j.mu.
func (j *Journal) fail(err error) error {
	j.err.Store(&err)
	return err
}

// SetSnapshotEvery sets the number of events between checkpoints (and
// segment rotations); n < 1 disables them.
func (j *Journal) SetSnapshotEvery(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.checkpointEvery = n
}

// SetKeep bounds the rotated segments retained after each checkpoint:
// once a rotation's checkpoint is durable, all but the newest n rotated
// segments are deleted — the journal's one way to compact. n < 0 (the
// default) keeps every segment, preserving the ability to replay — and
// audit — from genesis; once segment 0 is gone, ReplayGenesis refuses.
func (j *Journal) SetKeep(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.keep = n
}

// fresh reports whether the journal holds no valid data yet.
func (j *Journal) fresh() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.valid == 0 && !j.appended
}

// writeHeader publishes the genesis segment, the scheduler configuration
// as its one record.
func (j *Journal) writeHeader(h journalHeader) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	h.Segment = j.seg
	line, err := encodeRecord(&journalLine{Header: &h})
	if err != nil {
		return j.fail(fmt.Errorf("rms: journal encode: %w", err))
	}
	if err := j.publish(j.seg, false, line); err != nil {
		return err
	}
	j.header = &h
	return nil
}

// Append records one event and flushes it to the operating system
// before returning, so a subsequent process crash cannot lose it. After
// any write error the journal turns itself off permanently (every
// further Append fails): a journal with a hole must not keep growing.
func (j *Journal) Append(ev Request) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec = appendEventRecord(j.rec[:0], &ev)
	if err := j.writeRecord(j.rec); err != nil {
		return err
	}
	j.events++
	j.sinceCheckpoint++
	return nil
}

// writeRecord writes one framed record through to the operating system,
// unless the journal already failed.
func (j *Journal) writeRecord(b []byte) error {
	if err := j.Err(); err != nil {
		return err
	}
	if _, err := j.w.Write(b); err != nil {
		return j.fail(fmt.Errorf("rms: journal write: %w", err))
	}
	if err := j.w.Flush(); err != nil {
		return j.fail(fmt.Errorf("rms: journal flush: %w", err))
	}
	j.appended = true
	j.ladder = nil
	return nil
}

// maybeCheckpoint cuts a checkpoint and rotates the segment when enough
// events accumulated since the last one. The scheduler calls it with
// its own lock held, after an event applied. Failures — including fsync
// failures — are sticky: the journal refuses further appends and the
// daemon's readiness check trips.
func (j *Journal) maybeCheckpoint(s *Scheduler) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.Err() != nil || j.checkpointEvery < 1 || j.sinceCheckpoint < j.checkpointEvery {
		return
	}
	cs, err := s.captureCheckpointLocked(j.events)
	if err != nil {
		j.fail(fmt.Errorf("rms: journal checkpoint: %w", err))
		return
	}
	j.rotateLocked(&cs, s.doneLog)
}

// rotateLocked seals the active segment and publishes its successor
// headed by the given checkpoint, whose finished history done holds
// encoded (see checkpointRecord). Any failure is sticky. Callers hold
// j.mu.
func (j *Journal) rotateLocked(cs *checkpointState, done []byte) {
	// Seal: everything the clients were acknowledged for must be durable
	// before the old segment becomes immutable.
	if err := j.w.Flush(); err != nil {
		j.fail(fmt.Errorf("rms: journal flush: %w", err))
		return
	}
	if err := j.f.Sync(); err != nil {
		j.fail(fmt.Errorf("rms: journal sync: %w", err))
		return
	}
	h := *j.header
	h.Segment = j.seg + 1
	h.Checkpoint = true
	hl, err := encodeRecord(&journalLine{Header: &h})
	if err != nil {
		j.fail(fmt.Errorf("rms: journal encode: %w", err))
		return
	}
	cl, err := checkpointRecord(cs, done)
	if err != nil {
		j.fail(fmt.Errorf("rms: journal encode: %w", err))
		return
	}
	if j.publish(h.Segment, true, append([][]byte{hl}, cl...)...) != nil {
		return
	}
	j.sinceCheckpoint = 0
	if j.keep >= 0 {
		// The checkpoint just became durable; retire history beyond the
		// retention bound.
		j.compactLocked()
	}
}

// publish makes segment seg, whose records recs holds, the active
// segment, whole or not at all: it writes recs to the side file and
// fsyncs it, renames the active segment, if it is sealed, to its rotated
// name, then the side file to path, and reopens it for appends. A crash
// before the side file is renamed in leaves the journal as it was, and
// one between the renames leaves a whole side file with no active
// segment; recover settles both. Any failure is sticky. Callers hold
// j.mu.
func (j *Journal) publish(seg int, sealed bool, recs ...[]byte) error {
	fail := func(stage string, err error) error {
		return j.fail(fmt.Errorf("rms: journal %s: %w", stage, err))
	}
	side := j.path + sideSuffix
	f, err := j.fs.OpenFile(side, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fail("create", err)
	}
	w, size := bufio.NewWriter(f), int64(0)
	for _, b := range recs {
		w.Write(b) // a write error stays in w for Flush to return
		size += int64(len(b))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := j.f.Close(); err != nil {
		return fail("close", err)
	}
	if sealed {
		if err := j.fs.Rename(j.path, j.segPath(j.seg)); err != nil {
			return fail("rotate", err)
		}
	}
	if err := j.fs.Rename(side, j.path); err != nil {
		return fail("rotate", err)
	}
	nf, err := j.fs.OpenFile(j.path, os.O_RDWR, 0)
	if err != nil {
		return fail("rotate", err)
	}
	j.f, j.w = nf, bufio.NewWriter(nf)
	if _, err := nf.Seek(size, io.SeekStart); err != nil {
		return fail("rotate", err)
	}
	j.seg = seg
	j.appended = true
	j.ladder = nil
	return nil
}

// compactLocked deletes all but the newest j.keep rotated segments. Every
// rotated segment is older than the active one (recover refuses a
// journal where it is not), whose head checkpoint is durable, so none
// of them is needed to recover. Failure to delete is not fatal to the
// journal: the segments stay behind. Callers hold j.mu.
func (j *Journal) compactLocked() {
	rot, err := j.rotatedSegments()
	if err != nil || len(rot) <= j.keep {
		return
	}
	for _, seq := range rot[:len(rot)-j.keep] {
		if j.fs.Remove(j.segPath(seq)) != nil {
			return
		}
	}
}

// Sync flushes buffered data and fsyncs the active segment. Like write
// errors, a failed fsync is sticky: the journal cannot promise
// durability any more, so it stops accepting events.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.Err(); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return j.fail(fmt.Errorf("rms: journal flush: %w", err))
	}
	if err := j.f.Sync(); err != nil {
		return j.fail(fmt.Errorf("rms: journal sync: %w", err))
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	syncErr := j.Sync()
	j.mu.Lock()
	defer j.mu.Unlock()
	if closeErr := j.f.Close(); syncErr == nil {
		return closeErr
	}
	return syncErr
}
