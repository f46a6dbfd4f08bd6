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
// flight.
//
// Checkpoints and rotation. Every checkpointEvery events the journal
// cuts a checkpoint: the active segment is flushed, fsynced and renamed
// to `path.<seq>`, and a new active segment is created whose header
// (Checkpoint: true) is followed by a checkpoint record — the full
// restorable scheduler state (machine, queues, finished history, plan,
// driver and observer state). Restart therefore reads one segment: the
// newest checkpoint plus the events behind it, instead of the whole
// history (see Replay in replay.go). Rotated segments are immutable;
// Compact retires the ones older than the last durable checkpoint.
//
// Failure policy. Any write, flush, fsync or rotation failure is sticky:
// the journal permanently refuses further appends, because a journal
// with a hole must not keep growing and an unsynced checkpoint must not
// be trusted. Recovery at open truncates a torn tail of the active
// segment (the crash case) but refuses interior corruption that is
// followed by valid records — truncating there would silently discard
// acknowledged events.
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

// Event is one external scheduler event: everything that can change
// scheduler state besides the deterministic consequences of time.
type Event struct {
	Op          string       `json:"op"`
	Width       int          `json:"width,omitempty"`
	Estimate    int64        `json:"estimate,omitempty"`
	ID          int64        `json:"id,omitempty"`
	To          int64        `json:"to,omitempty"`
	Procs       int          `json:"procs,omitempty"`
	Completions []int64      `json:"completions,omitempty"`
	Subs        []Submission `json:"subs,omitempty"`
}

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

// planEntryRec is one schedule entry of a checkpointed plan.
type planEntryRec struct {
	ID    int64 `json:"id"`
	Start int64 `json:"start"`
}

// planRec captures the schedule in force at checkpoint time, so a
// restored engine can fire planned starts and compute its next action
// time before its first replanning event, exactly like the original.
// The policy travels by name: restore resolves it through the policy
// registry, so journals survive registry refactors and work for any
// registered custom policy — and fail loudly for an unregistered one.
type planRec struct {
	Policy   string         `json:"policy"`
	Now      int64          `json:"now"`
	Capacity int            `json:"capacity"`
	Entries  []planEntryRec `json:"entries,omitempty"`
}

// observerState is one stateful observer's checkpointed state, matched
// by key at restore (see StatefulObserver in rms.go).
type observerState struct {
	Key   string          `json:"key"`
	State json.RawMessage `json:"state,omitempty"`
}

// checkpointState is the full restorable scheduler state, cut after an
// event applied. Replay restores from the newest valid one; genesis
// replay verifies the rebuilt state against every one it passes.
type checkpointState struct {
	Events    int64           `json:"events"` // events since genesis folded into this state
	Now       int64           `json:"now"`
	NextID    int64           `json:"next_id"`
	Failed    int             `json:"failed"`
	Waiting   []JobInfo       `json:"waiting,omitempty"` // engine submission order
	Running   []JobInfo       `json:"running,omitempty"` // engine start order
	Done      []JobInfo       `json:"done,omitempty"`    // finish order
	Plan      *planRec        `json:"plan,omitempty"`
	Driver    json.RawMessage `json:"driver,omitempty"`
	Observers []observerState `json:"observers,omitempty"`
}

// journalLine is the JSON payload of one record: exactly one field set.
type journalLine struct {
	Header     *journalHeader   `json:"header,omitempty"`
	Event      *Event           `json:"event,omitempty"`
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
// running) and its tail (plan, driver and observers). The record comes
// back in pieces, to be written in order.
func checkpointRecord(cs *checkpointState, done []byte) ([][]byte, error) {
	if (len(cs.Done) > 0) != (len(done) > 0) {
		return nil, fmt.Errorf("checkpoint holds %d finished jobs, history log %d bytes", len(cs.Done), len(done))
	}
	// Every field after running is omitempty, so the head alone encodes as
	// the full record's prefix, and the record without its history as that
	// prefix followed by the tail.
	head, rest := *cs, *cs
	head.Done, head.Plan, head.Driver, head.Observers = nil, nil, nil, nil
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

// decodeRecord validates and decodes one record line (without its
// newline): checksum intact, payload well-formed, exactly one field.
func decodeRecord(b []byte) (journalLine, bool) {
	var l journalLine
	if len(b) < 10 || b[8] != ' ' {
		return l, false
	}
	sum, err := hex.DecodeString(string(b[:8]))
	if err != nil {
		return l, false
	}
	payload := b[9:]
	crc := crc32.Checksum(payload, crcTable)
	if sum[0] != byte(crc>>24) || sum[1] != byte(crc>>16) || sum[2] != byte(crc>>8) || sum[3] != byte(crc) {
		return l, false
	}
	if ev, ok := parseEventRecord(payload); ok {
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
	seq         int
	header      journalHeader
	headerOK    bool
	ckpt        *checkpointState // valid head checkpoint, if any
	ckptCorrupt bool             // header promises a checkpoint, record is invalid or missing
	events      []Event          // valid events after the head, in order
	clean       bool             // the events region is fully valid to the end of the file
}

// interpretSegment classifies a segment's records. In repair mode (the
// active segment at open) it additionally decides recovery: a torn tail
// of invalid records yields a truncation offset, while an invalid
// record *followed by valid records* is interior corruption and an
// error — truncating there would discard acknowledged events. The one
// tolerated interior casualty is the header-promised checkpoint record,
// which is redundant (rebuildable from older segments) and therefore
// skipped rather than fatal.
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

	i := 1
	if sc.header.Checkpoint {
		if len(recs) < 2 {
			sc.ckptCorrupt = true // promised but absent (torn and truncated earlier)
		} else {
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
				// promised: the torn checkpoint was truncated at an earlier
				// open and appends continued. Fall back past it.
				sc.ckptCorrupt = true
				i = 1
			default:
				sc.ckptCorrupt = true
				i = 2
				if repair && len(recs) == 2 {
					// The corrupt checkpoint is the torn tail itself.
					truncateAt = recs[1].off
					return sc, truncateAt, nil
				}
			}
		}
	}

	firstBad := -1
	for ; i < len(recs); i++ {
		le, oke := journalLine{}, false
		if recs[i].terminated {
			le, oke = decodeRecord(recs[i].data)
		}
		if !oke || le.Event == nil {
			firstBad = i
			break
		}
		sc.events = append(sc.events, *le.Event)
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
// with Scheduler.SetJournal. Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	fs   vfs.FS
	path string
	f    vfs.File // active segment
	w    *bufio.Writer

	seg     int            // active segment sequence number
	header  *journalHeader // genesis configuration; nil until known
	valid   int64          // validated length of the active segment at open
	records int            // valid records in the active segment at open
	// activeCkpt: the active segment is headed by a valid checkpoint —
	// validated at open, set by every rotation. Its header's promise is
	// not enough: a checkpoint corrupt at open leaves recovery resting on
	// an older segment that Compact must keep.
	activeCkpt bool

	appended        bool
	events          int64 // events since genesis folded into the log
	sinceCheckpoint int
	checkpointEvery int
	keep            int // rotated segments auto-compact retains; < 0 keeps all

	activeScan *segScan // cached open-time scan, consumed by Replay; dropped on append
	rec        []byte   // the event record being appended, reused append after append

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
// It validates the active segment, truncates a torn tail left by a
// crash, and self-heals the crash windows of a checkpoint rotation
// (a missing or torn new active segment becomes a continuation
// segment). Interior corruption followed by valid records is refused
// rather than truncated.
func OpenJournalFS(fsys vfs.FS, path string) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rms: journal: %w", err)
	}
	j := &Journal{
		fs: fsys, path: path, f: f, w: bufio.NewWriter(f),
		checkpointEvery: DefaultSnapshotEvery, keep: -1,
	}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// segPath returns the file name of rotated segment seq.
func (j *Journal) segPath(seq int) string {
	return fmt.Sprintf("%s.%d", j.path, seq)
}

// rotatedSegments lists the rotated segment sequence numbers, sorted
// ascending.
func (j *Journal) rotatedSegments() ([]int, error) {
	dir := filepath.Dir(j.path)
	base := filepath.Base(j.path) + "."
	entries, err := j.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rms: journal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, base) {
			continue
		}
		seq, err := strconv.Atoi(name[len(base):])
		if err != nil || seq < 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
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

// recover validates the active segment, truncates a torn tail, repairs
// rotation crash windows and reconstructs the event accounting.
func (j *Journal) recover() error {
	rot, err := j.rotatedSegments()
	if err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	recs := splitRecords(data)

	// No valid header at the front?
	headerValid := false
	if len(recs) > 0 && recs[0].terminated {
		if l, ok := decodeRecord(recs[0].data); ok && l.Header != nil {
			headerValid = true
		}
	}
	if !headerValid {
		if len(rot) == 0 {
			if len(data) > 0 {
				// Not ours (foreign file, unsupported format, or a header
				// torn by a crash during the very first write) — refuse
				// rather than destroy it by truncating.
				return fmt.Errorf("rms: journal %s: no valid header; not a dynpd journal (delete it to start fresh)", j.path)
			}
			// A fresh, empty journal: the header is written by SetJournal.
			j.seg = 0
			return nil
		}
		// Rotated segments exist, so this journal was mid-rotation when
		// it died: the new active segment is missing or its first write
		// was torn. Any valid record in the debris would mean we are
		// about to discard acknowledged data — refuse then.
		for _, r := range recs {
			if !r.terminated {
				continue
			}
			if _, ok := decodeRecord(r.data); ok {
				return fmt.Errorf("rms: journal %s: active segment has valid records but no valid header — refusing to repair over them", j.path)
			}
		}
		return j.startContinuation(rot)
	}

	sc, truncateAt, err := interpretSegment(recs, true)
	if err != nil {
		return err
	}
	if sc.header.Version != journalVersion {
		return fmt.Errorf("rms: journal %s: format version %d, want %d (move the old journal aside to start fresh)", j.path, sc.header.Version, journalVersion)
	}
	if len(rot) > 0 && sc.header.Segment <= rot[len(rot)-1] {
		return fmt.Errorf("rms: journal %s: active segment %d is not newer than rotated segment %d", j.path, sc.header.Segment, rot[len(rot)-1])
	}
	j.seg = sc.header.Segment
	h := sc.header
	j.header = &h

	end := int64(len(data))
	if truncateAt >= 0 {
		end = truncateAt
		// Re-interpret the repaired prefix so the cached scan matches the
		// file contents exactly.
		if sc2, _, err2 := interpretSegment(splitRecords(data[:end]), false); err2 == nil {
			sc = sc2
		}
	}
	if err := j.f.Truncate(end); err != nil {
		return fmt.Errorf("rms: journal truncate: %w", err)
	}
	if _, err := j.f.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	j.valid = end
	sc.seq = j.seg
	j.activeScan = &sc
	j.records = 1 + len(sc.events)
	if sc.ckpt != nil {
		j.records++
		j.activeCkpt = true
	}
	return j.countEvents(&sc, rot)
}

// countEvents reconstructs the events-since-genesis and
// events-since-checkpoint counters from the active scan, walking back
// through rotated segments only when the active segment carries no
// checkpoint of its own. The counts are best-effort on a corrupt
// history: Replay is the authority that refuses.
func (j *Journal) countEvents(sc *segScan, rot []int) error {
	tail := int64(len(sc.events))
	if sc.ckpt != nil {
		j.events = sc.ckpt.Events + tail
		j.sinceCheckpoint = int(tail)
		return nil
	}
	if j.seg == 0 {
		j.events = tail
		j.sinceCheckpoint = int(tail)
		return nil
	}
	acc := tail
	for i := len(rot) - 1; i >= 0; i-- {
		ss, err := j.readSegment(rot[i])
		if err != nil || !ss.headerOK {
			break // best effort; Replay will refuse if it matters
		}
		if ss.ckpt != nil {
			j.events = ss.ckpt.Events + int64(len(ss.events)) + acc
			j.sinceCheckpoint = int(int64(len(ss.events)) + acc)
			return nil
		}
		acc += int64(len(ss.events))
		if ss.seq == 0 {
			j.events = acc
			j.sinceCheckpoint = int(acc)
			return nil
		}
	}
	j.events = acc
	j.sinceCheckpoint = int(acc)
	return nil
}

// startContinuation creates a fresh header-only active segment after a
// crash mid-rotation, copying the genesis configuration from the newest
// readable rotated segment. The segment carries no checkpoint; the
// recovery ladder falls back to the previous one.
func (j *Journal) startContinuation(rot []int) error {
	var h journalHeader
	found := false
	for i := len(rot) - 1; i >= 0 && !found; i-- {
		if ss, err := j.readSegment(rot[i]); err == nil && ss.headerOK {
			h = ss.header
			found = true
		}
	}
	if !found {
		return fmt.Errorf("rms: journal %s: cannot repair after crashed rotation: no rotated segment has a readable header", j.path)
	}
	h.Segment = rot[len(rot)-1] + 1
	h.Checkpoint = false
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("rms: journal truncate: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("rms: journal: %w", err)
	}
	line, err := encodeRecord(&journalLine{Header: &h})
	if err != nil {
		return fmt.Errorf("rms: journal encode: %w", err)
	}
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("rms: journal write: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("rms: journal flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("rms: journal sync: %w", err)
	}
	j.seg = h.Segment
	j.header = &h
	j.valid = int64(len(line))
	j.records = 1
	sc := segScan{seq: j.seg, header: h, headerOK: true, clean: true}
	j.activeScan = &sc
	return j.countEvents(&sc, rot)
}

// Path returns the journal's active segment path.
func (j *Journal) Path() string { return j.path }

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
// once a checkpoint is durable, all but the newest n rotated segments
// are deleted automatically. n < 0 (the default) keeps every segment,
// preserving the ability to replay — and audit — from genesis.
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

// writeHeader records the scheduler configuration as the genesis
// segment's first record.
func (j *Journal) writeHeader(h journalHeader) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	h.Segment = j.seg
	if err := j.appendLine(&journalLine{Header: &h}); err != nil {
		return err
	}
	j.header = &h
	return nil
}

// Append records one event and flushes it to the operating system
// before returning, so a subsequent process crash cannot lose it. After
// any write error the journal turns itself off permanently (every
// further Append fails): a journal with a hole must not keep growing.
func (j *Journal) Append(ev Event) error {
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

func (j *Journal) appendLine(l *journalLine) error {
	b, err := encodeRecord(l)
	if err != nil {
		return j.fail(fmt.Errorf("rms: journal encode: %w", err))
	}
	return j.writeRecord(b)
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
	j.activeScan = nil // the cached open-time scan no longer matches the file
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

// rotateLocked seals the active segment and opens its successor headed
// by the given checkpoint, whose finished history done holds encoded (see
// checkpointRecord). Any failure is sticky. Callers hold j.mu.
func (j *Journal) rotateLocked(cs *checkpointState, done []byte) {
	fail := func(stage string, err error) {
		j.fail(fmt.Errorf("rms: journal %s: %w", stage, err))
	}
	// Seal: everything the clients were acknowledged for must be durable
	// before the old segment becomes immutable.
	if err := j.w.Flush(); err != nil {
		fail("flush", err)
		return
	}
	if err := j.f.Sync(); err != nil {
		fail("sync", err)
		return
	}
	if err := j.f.Close(); err != nil {
		fail("close", err)
		return
	}
	if err := j.fs.Rename(j.path, j.segPath(j.seg)); err != nil {
		fail("rotate", err)
		return
	}
	nf, err := j.fs.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		fail("rotate", err)
		return
	}
	j.f = nf
	j.w = bufio.NewWriter(nf)
	j.seg++
	j.activeCkpt = false // until the checkpoint below is durable
	h := *j.header
	h.Segment = j.seg
	h.Checkpoint = true
	hl, err := encodeRecord(&journalLine{Header: &h})
	if err != nil {
		fail("encode", err)
		return
	}
	cl, err := checkpointRecord(cs, done)
	if err != nil {
		fail("encode", err)
		return
	}
	for _, b := range append([][]byte{hl}, cl...) {
		if _, err := j.w.Write(b); err != nil {
			fail("write", err)
			return
		}
	}
	if err := j.w.Flush(); err != nil {
		fail("flush", err)
		return
	}
	if err := j.f.Sync(); err != nil {
		fail("sync", err)
		return
	}
	j.sinceCheckpoint = 0
	j.activeCkpt = true
	if j.keep >= 0 {
		// The checkpoint just became durable; retire history beyond the
		// retention bound. Failure to delete is not fatal to the journal.
		_, _ = j.compactLocked(j.keep, j.seg)
	}
}

// Compact deletes rotated segments older than the last durable
// checkpoint, retaining the newest keep of them as extra fallback rungs
// (keep 0 retires everything the newest checkpoint makes redundant).
// Segments at or above the newest checkpoint are never touched. It
// returns the number of segments deleted. Compacting away segment 0
// gives up replay-from-genesis; ReplayGenesis then refuses.
func (j *Journal) Compact(keep int) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if keep < 0 {
		return 0, nil
	}
	rung := -1
	if j.activeCkpt {
		rung = j.seg
	} else {
		rot, err := j.rotatedSegments()
		if err != nil {
			return 0, err
		}
		for i := len(rot) - 1; i >= 0; i-- {
			if ss, err := j.readSegment(rot[i]); err == nil && ss.ckpt != nil {
				rung = rot[i]
				break
			}
		}
	}
	if rung < 0 {
		return 0, nil // no durable checkpoint; everything is still needed
	}
	return j.compactLocked(keep, rung)
}

// compactLocked deletes rotated segments with sequence numbers below
// rung, keeping the newest keep of them. Callers hold j.mu.
func (j *Journal) compactLocked(keep, rung int) (int, error) {
	rot, err := j.rotatedSegments()
	if err != nil {
		return 0, err
	}
	var eligible []int
	for _, seq := range rot {
		if seq < rung {
			eligible = append(eligible, seq)
		}
	}
	if len(eligible) <= keep {
		return 0, nil
	}
	removed := 0
	for _, seq := range eligible[:len(eligible)-keep] {
		if err := j.fs.Remove(j.segPath(seq)); err != nil {
			return removed, fmt.Errorf("rms: journal compact: %w", err)
		}
		removed++
	}
	return removed, nil
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
