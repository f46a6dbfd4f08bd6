package rms

import (
	"bytes"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"maps"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/vfs"
)

// lockstepFactory builds one self-checking driver for the daemon streams,
// tallying the plans it checks in lanes: the lockstep wrapper, plus — for
// a self-tuning one — the wrapped dynP driver and the naive tuner it is
// held to (nil for a static driver).
type lockstepFactory func(lanes *plantest.Lanes) (sim.Driver, *sim.DynP, *plantest.Tuner)

// staticStream runs streams on a capacity-processor daemon with lockstep
// static drivers under policy p.
func staticStream(t testing.TB, capacity int, p policy.Policy) daemonStream {
	return daemonStream{capacity: capacity,
		newDriver: func(lanes *plantest.Lanes) (sim.Driver, *sim.DynP, *plantest.Tuner) {
			return plantest.Lockstep(t, &sim.Static{Policy: p}, lanes), nil, nil
		},
		oracle: func() plantest.Step { return plantest.Fixed{Policy: p} }}
}

// tunerStream runs streams on a capacity-processor daemon with lockstep
// dynP drivers deciding with newDecider.
func tunerStream(t testing.TB, capacity int, newDecider func() core.Decider) daemonStream {
	return tunerStreamOf(t, capacity, func() *sim.DynP { return sim.NewDynP(newDecider()) },
		func() *plantest.Tuner { return plantest.NewTuner(newDecider(), core.MetricSLDwA) })
}

// tunerStreamOf runs streams on a capacity-processor daemon with lockstep
// dynP drivers from newDynP, each held to a naive tuner from newRef.
func tunerStreamOf(t testing.TB, capacity int, newDynP func() *sim.DynP, newRef func() *plantest.Tuner) daemonStream {
	return daemonStream{capacity: capacity,
		newDriver: func(lanes *plantest.Lanes) (sim.Driver, *sim.DynP, *plantest.Tuner) {
			d, ref := newDynP(), newRef()
			return plantest.TunerLockstep(t, d, d.Tuner, ref, lanes), d, ref
		},
		oracle: func() plantest.Step { return newRef() }}
}

// A streamOp is one request of a daemon op stream, or a "restart" of the
// daemon from its journal. A tick or a deliver goes by after now, or to
// its own To if that is later. Picks, if any, fill in the rest off the
// daemon's state when the op runs: a done, a cancel and a deliver name
// the running, waiting and running jobs they index, in Status order and
// modulo their number (a deliver only those still running at its
// instant, each once), and a fail or a restore moves one more processor
// than its pick, modulo those up or those failed; an op with nothing to
// pick is not sent. Without picks, the request names its jobs and
// processors itself, as a tie-rule script's does.
type streamOp struct {
	Request
	by    int64
	picks []int
}

func (op streamOp) String() string {
	s := op.Op
	if op.by > 0 {
		s += fmt.Sprintf(" +%d", op.by)
	}
	for _, p := range op.picks {
		s += fmt.Sprintf(" #%d", p)
	}
	for _, sh := range append([]Submission{{Width: op.Width, Estimate: op.Estimate}}, op.Subs...) {
		if sh.Width > 0 {
			s += fmt.Sprintf(" %dx%d", sh.Width, sh.Estimate)
		}
	}
	if op.Count > 0 {
		s += fmt.Sprintf(" *%d", op.Count)
	}
	return s
}

// decodeStream reads a plantest stream, two bytes an op, for a machine of
// plantest.Capacity processors: the first byte picks the op, the second
// its job's shape (plantest.SubmitShape), the job it picks and how far it
// moves the clock. Every op with an interactive entry point also goes
// through Deliver; a daemon assigns its own IDs, so a cancelled job is
// re-submitted under a fresh one; and op 7 is what only a daemon has: a
// restart, a quote, and batches at a later instant.
func decodeStream(data []byte) []streamOp {
	var ops []streamOp
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		w, e := plantest.SubmitShape(arg)
		sub, pick := []Submission{{Width: w, Estimate: e}}, []int{int(arg)}
		var o streamOp
		switch op % 8 {
		case 0, 1:
			o = streamOp{Request: Request{Op: "deliver", Subs: sub}}
		case 2:
			o = streamOp{Request: Request{Op: "submit", Width: w, Estimate: e}}
		case 3:
			o = streamOp{Request: Request{Op: "tick"}, by: 7 * int64(arg)}
		case 4:
			o = streamOp{Request: Request{Op: "done"}, picks: pick}
		case 5:
			o = streamOp{Request: Request{Op: "cancel"}, picks: pick}
			if arg >= 128 {
				ops = append(ops, o)
				o = streamOp{Request: Request{Op: "submit", Width: w, Estimate: e}}
			}
		case 6:
			o = streamOp{Request: Request{Op: "fail"}, picks: []int{int(arg / 2)}}
		case 7:
			o = [...]streamOp{{Request: Request{Op: "restart"}},
				{Request: Request{Op: "quote", Width: w, Estimate: e, Count: 1 + int(arg/4)%3}},
				{Request: Request{Op: "deliver", Subs: sub}, by: int64(arg), picks: pick},
				{Request: Request{Op: "deliver", Subs: append(sub, sub...)}, by: int64(arg)}}[arg%4]
		}
		if arg%2 == 1 && (op%8 == 3 || op%8 == 4) {
			o.Op = "deliver"
		} else if arg%2 == 1 && op%8 == 6 {
			o.Op = "restore"
		}
		ops = append(ops, o)
	}
	return ops
}

// A daemonStream is what the stream interpreter runs a stream on, and
// where it sends what it sees.
type daemonStream struct {
	capacity  int
	newDriver lockstepFactory
	oracle    func() plantest.Step // the naive daemon's step; nil runs none, for a driver the oracle lacks
	reads     hash.Hash64          // if set, every response is hashed into it,
	journal   hash.Hash64          // and every journal segment's name and bytes into this
	// wire, if set, carries the requests to the daemon through a Client
	// over net.Pipe; the daemon's drivers must then be plain ones, since
	// a lockstep driver would fail the test on the server's goroutine.
	wire *wireTap
	// after, if set, is called after each op's checks with the op's
	// transitions and the answer to a quote.
	after func(s *Scheduler, log []plantest.Transition, quoted []Quote)
	// crashes, if set, has the stream's last op crashed at every file
	// operation it makes (crashOp), and keeps what the crashes found.
	crashes *crashLog
}

// streamEnd is what a stream leaves.
type streamEnd struct {
	unplaced, placed int    // waiting jobs the naive plan in force had no entry for, and had one for, over every op
	status           Status // the daemon's last
	finished         []JobInfo
	fs               *memFS    // its journal,
	state            [2]string // which every replay of fs must rebuild (daemonState)
	// lanes tallies the plans of the daemon's lockstep drivers, and twins
	// those of its quote twins'.
	lanes, twins plantest.Lanes
}

// runDeliverLockstep is the daemon stream interpreter. It sends ops, as
// protocol requests, to a Server over a journaled, quote-enabled
// Scheduler with a lockstep driver inside, so that every plan the daemon
// makes — those of the sweep Deliver performs on its way to a later
// instant, of quote twins, of journal replays — is checked against the
// naive planner. The same requests go to a naive daemon planning with a
// ds.oracle step (plantest.Daemon), whose transitions the scheduler's
// must equal after every op, whose live jobs (checkDerived) and quotes
// the scheduler's must equal, and whose finished jobs the scheduler's
// must equal at the end (BC-4); the scheduler's invariants and Status's
// order (checkStatusOrder) hold after every op, and the infos a request
// returns equal Job's. A restart closes the journal (checkpointing every
// third op, or sixteen times over a longer stream) and replays it into a
// fresh Scheduler with a fresh lockstep
// driver, repairing nothing on the way (no truncate, remove or rename in
// the memFS log),
// which must land on the pre-crash fingerprint, checkpoint image
// (plan, driver state and counts included) and naive active policy and
// decider state; the stream
// continues on it (BC-3). A quote's twin must have continued from the
// live tuner's state. Every stream ends with a restart and a replay from
// genesis, every checkpoint on the way byte-compared, to the same
// fingerprint and image. With ds.crashes set, the daemon is also killed
// inside the stream's last op, at every file operation it makes
// (crashOp). Its streams: the seeded and fuzzed ones
// (decodeStream), every short one (TestShortStreamsLockstep), the
// tie-rule scripts (TestTieRules) and the differential job sets
// (TestDifferentialSimVsRMS).
func runDeliverLockstep(t testing.TB, ds daemonStream, ops []streamOp) streamEnd {
	end := streamEnd{fs: &memFS{files: map[string][]byte{}}}
	every := max(3, len(ops)/16)
	var naive *plantest.Daemon
	if ds.oracle != nil {
		naive = plantest.NewDaemon(ds.capacity, ds.oracle(), 0)
	}
	var (
		rec       plantest.Recorder
		s         *Scheduler
		j         *Journal
		send      func(Request) Response
		sent      []Request // what the naive daemon was sent
		live, tw  *sim.DynP
		ref       *plantest.Tuner
		twinMaker = func() sim.Driver {
			drv, dp, _ := ds.newDriver(&end.twins)
			tw = dp
			return drv
		}
	)
	open := func(genesis bool) *Scheduler {
		var drv sim.Driver
		drv, live, ref = ds.newDriver(&end.lanes)
		mark, fresh := len(end.fs.log), len(end.fs.files) == 0
		s, j, _ = openJournaled(t, ds.capacity, drv, end.fs, genesis, every)
		// The journal was closed cleanly: opening it repairs nothing, and
		// only a fresh one's header is published.
		if k := slices.IndexFunc(end.fs.log[mark:], func(op fsOp) bool {
			return op.kind == "truncate" || op.kind == "remove" || op.kind == "rename" && !fresh
		}); k >= 0 {
			t.Fatalf("a clean restart repaired %s: %s", end.fs.log[mark+k].name, end.fs.log[mark+k].kind)
		}
		if err := s.EnableQuotes(twinMaker); err != nil {
			t.Fatal(err)
		}
		return s
	}
	start := func() {
		s = open(false)
		s.AddObserver(&rec) // the replay re-enacts what rec has seen
		send = NewServer(s, true).Handle
		if ds.wire != nil {
			send = ds.wire.dial(t, s)
		}
	}
	stop := func() {
		if ds.wire != nil {
			ds.wire.hangUp(t)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ask := func(when string, req Request) Response {
		resp := send(req)
		if resp.OK == tooWide(req, ds.capacity) {
			t.Fatalf("%s: %s: ok %v: %s", when, req.Op, resp.OK, resp.Error)
		}
		if ds.reads != nil {
			line, err := appendResponse(nil, &resp)
			if err != nil {
				t.Fatal(err)
			}
			ds.reads.Write(append(line, '\n'))
		}
		return resp
	}
	// A replay must rebuild the fingerprint and the checkpoint image.
	same := func(when string, want [2]string, got *Scheduler) {
		if fp := fingerprint(t, got); fp != want[0] {
			t.Fatalf("%s: replayed state diverges\nlive:     %s\nreplayed: %s", when, want[0], fp)
		}
		if img := checkpointImage(t, got); img != want[1] {
			t.Fatalf("%s: replayed checkpoint image diverges\nlive:     %s\nreplayed: %s", when, want[1], img)
		}
	}
	restart := func(when string) (want [2]string) {
		want = daemonState(t, s)
		var wantActive policy.Policy
		var wantDecider string
		if ref != nil {
			wantActive, wantDecider = ref.Active, deciderState(t, ref)
		}
		stop()
		start()
		same(when, want, s)
		if ref != nil && (ref.Active != wantActive || deciderState(t, ref) != wantDecider) {
			t.Fatalf("%s: naive tuner restarted on %v with decider state %s, want %v with %s",
				when, ref.Active, deciderState(t, ref), wantActive, wantDecider)
		}
		return want
	}
	quote := func(when string, req Request) []Quote {
		plans := end.twins.Stopped + end.twins.Whole
		qs := ask(when, req).Quotes
		if len(qs) != req.Count {
			t.Fatalf("%s: %d quotes for %d replicas", when, len(qs), req.Count)
		}
		// One quote at a time: the scheduler's one warm twin, made
		// last, ran if anything planned.
		if twinPlans := end.twins.Stopped + end.twins.Whole - plans; tw != nil && live != nil && twinPlans > 0 {
			if got, want := tw.Stats().Steps, live.Stats().Steps+twinPlans; got != want {
				t.Fatalf("%s: twin tuner took %d steps after %d plans, want the live tuner's %d plus them",
					when, got, twinPlans, live.Stats().Steps)
			}
		}
		if naive != nil {
			want := naive.Quote(plantest.Shape{Width: req.Width, Estimate: req.Estimate}, req.Count)
			for k, q := range qs {
				if q.Start != want[k] {
					t.Fatalf("%s: twin quoted %+v, the naive daemon starts %v", when, qs, want)
				}
			}
		}
		return qs
	}
	start()

	for i, op := range ops {
		when := fmt.Sprintf("op %d (%v)", i, op)
		st := *ask(when, Request{Op: "status"}).Status
		req := op.Request
		switch {
		case op.picks == nil:
		case req.Op == "done" || req.Op == "cancel":
			if jobs := map[string][]JobInfo{"done": st.Running, "cancel": st.Waiting}[req.Op]; len(jobs) > 0 {
				req.ID = int64(jobs[op.picks[0]%len(jobs)].ID)
			} else {
				req.Op = ""
			}
		case req.Op == "fail" || req.Op == "restore":
			if n := map[string]int{"fail": st.Capacity - st.FailedProcs, "restore": st.FailedProcs}[req.Op]; n > 0 {
				req.Procs = 1 + op.picks[0]%n
			} else {
				req.Op = ""
			}
		}
		if req.Op == "tick" || req.Op == "deliver" {
			req.To = max(req.To, st.Now+op.by)
			for _, id := range batchDone(st, op.picks, req.To) {
				req.Completions = append(req.Completions, int64(id))
			}
		}
		var infos []JobInfo
		var quoted []Quote
		var flight inFlight
		from, mark := len(rec.Transitions), len(end.fs.log)
		switch req.Op {
		case "":
		case "restart":
			restart(when)
		case "quote":
			quoted = quote(when, req)
		default:
			if ds.crashes != nil && i == len(ops)-1 {
				flight = inFlight{req: req, every: every, files: [2][32]byte{end.fs.key()}, events: [2]int64{j.Events()}}
			}
			resp := ask(when, req)
			if infos = resp.Jobs; resp.Job != nil {
				infos = append(infos, *resp.Job)
			}
			if naive != nil && resp.OK {
				mirror(naive, req)
				sent = append(sent, req)
			}
		}
		err := s.CheckInvariants()
		if err == nil && naive != nil {
			err = plantest.SameTransitions(rec.Transitions, naive.Transitions)
		}
		if err != nil {
			t.Fatalf("after %s: %v", when, err)
		}
		for _, info := range infos {
			if got := ask(when, Request{Op: "job", ID: int64(info.ID)}).Job; *got != info {
				t.Fatalf("%s: the request returned %+v, Job(%d) reads %+v", when, info, info.ID, *got)
			}
		}
		if naive != nil {
			u, p := checkDerived(t, s, naive)
			end.unplaced, end.placed = end.unplaced+u, end.placed+p
		}
		checkStatusOrder(t, when, s)
		if flight.req.Op != "" && len(end.fs.log) > mark {
			flight.sent, flight.files[1], flight.events[1] = sent, end.fs.key(), j.Events()
			crashOp(t, ds, end.fs, mark, flight, s)
		}
		if ds.after != nil {
			ds.after(s, rec.Transitions[from:], quoted)
		}
		if ds.reads != nil {
			for k, w := range []int{1, ds.capacity / 4, ds.capacity} {
				quote(when, Request{Op: "quote", Width: w, Estimate: []int64{30, 600, 3600}[(i+k)%3], Count: 1 + i%3})
			}
			ask(when, Request{Op: "report"})
		}
	}

	end.state = restart("at the end")
	if end.finished = ask("at the end", Request{Op: "finished"}).Finished; naive != nil {
		sameFinished(t, end.finished, naive.Records)
	}
	end.status = *ask("at the end", Request{Op: "status"}).Status
	stop()
	same("genesis replay", end.state, open(true))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if ds.journal != nil {
		segments, _ := end.fs.ReadDir(".")
		for _, seg := range segments {
			fmt.Fprintf(ds.journal, "%s %d\n", seg.Name(), len(end.fs.files[seg.Name()]))
			ds.journal.Write(end.fs.files[seg.Name()])
		}
	}
	return end
}

// journalPath is where a stream keeps its journal.
const journalPath = "events.journal"

// openJournaled makes a scheduler planning with drv and replays into it
// the journal on fsys, from genesis if genesis is set, else the fast way,
// journaling on from there. It returns the scheduler, its journal, set to
// checkpoint every every events, and the events the replay folded in.
func openJournaled(t testing.TB, capacity int, drv sim.Driver, fsys vfs.FS, genesis bool, every int) (*Scheduler, *Journal, int) {
	s, j, n, err := replayJournal(capacity, drv, fsys, genesis)
	if err == nil && !genesis {
		j.SetSnapshotEvery(every)
		err = s.SetJournal(j)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s, j, n
}

// replayJournal makes a scheduler planning with drv and replays into it
// the journal on fsys, from genesis if genesis is set, else the fast way.
// It returns the scheduler, the journal, open, and the events the replay
// folded in, or why the journal or the replay refused.
func replayJournal(capacity int, drv sim.Driver, fsys vfs.FS, genesis bool) (*Scheduler, *Journal, int, error) {
	s, err := New(capacity, drv, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	j, err := OpenJournalFS(fsys, journalPath)
	if err != nil {
		return nil, nil, 0, err
	}
	replay := j.Replay
	if genesis {
		replay = j.ReplayGenesis
	}
	n, err := replay(s)
	return s, j, n, err
}

// tooWide reports whether req names a job wider than a capacity-processor
// machine, which a daemon refuses and the naive daemon is not sent.
func tooWide(req Request, capacity int) bool {
	return req.Width > capacity || slices.ContainsFunc(req.Subs, func(sub Submission) bool { return sub.Width > capacity })
}

// deciderState is the saved state of a naive tuner's decider, "" for a
// decider that keeps none.
func deciderState(t testing.TB, ref *plantest.Tuner) string {
	sd, ok := ref.Decider.(core.StatefulDecider)
	if !ok {
		return ""
	}
	data, err := sd.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// mirror sends the naive daemon what req asks of a daemon.
func mirror(n *plantest.Daemon, req Request) {
	switch req.Op {
	case "submit":
		n.SubmitNow(plantest.Shape{Width: req.Width, Estimate: req.Estimate})
	case "done":
		n.Complete(job.ID(req.ID))
	case "cancel":
		n.Cancel(job.ID(req.ID))
	case "tick":
		n.Advance(req.To)
	case "fail":
		n.Fail(req.Procs)
	case "restore":
		n.Restore(req.Procs)
	case "deliver":
		var done []job.ID
		for _, id := range req.Completions {
			done = append(done, job.ID(id))
		}
		var subs []plantest.Shape
		for _, sub := range req.Subs {
			subs = append(subs, plantest.Shape{Width: sub.Width, Estimate: sub.Estimate})
		}
		n.Deliver(req.To, done, subs...)
	}
}

// batchDone is what a batch at instant at completes: the picked jobs
// still running then, each once.
func batchDone(st Status, picks []int, at int64) []job.ID {
	var done []job.ID
	for _, p := range picks {
		if len(st.Running) == 0 {
			break
		}
		if r := st.Running[p%len(st.Running)]; r.Started+r.Estimate >= at && !slices.Contains(done, r.ID) {
			done = append(done, r.ID)
		}
	}
	return done
}

// checkStatusOrder holds Status to its order contract, read directly and
// through the protocol (a server's answer to a status request, encoded
// and decoded by the codec): waiting jobs by planned start, running jobs
// by start time, ties by ID in both.
func checkStatusOrder(t testing.TB, when string, s *Scheduler) {
	t.Helper()
	direct := s.Status()
	resp := NewServer(s, true).Handle(Request{Op: "status"})
	line, err := appendResponse(nil, &resp)
	var wire Response
	if err == nil {
		err = decodeResponse(line, &wire)
	}
	if err != nil || wire.Status == nil {
		t.Fatalf("%s: status through the protocol: %v (%s)", when, err, line)
	}
	if !reflect.DeepEqual(*wire.Status, direct) {
		t.Fatalf("%s: status through the protocol differs from the direct one\nwire:   %+v\ndirect: %+v", when, *wire.Status, direct)
	}
	for _, l := range []struct {
		name string
		jobs []JobInfo
		key  func(JobInfo) int64
	}{
		{"waiting", direct.Waiting, func(j JobInfo) int64 { return j.PlannedStart }},
		{"running", direct.Running, func(j JobInfo) int64 { return j.Started }},
	} {
		for k := 1; k < len(l.jobs); k++ {
			a, b := l.jobs[k-1], l.jobs[k]
			if l.key(a) > l.key(b) || l.key(a) == l.key(b) && a.ID >= b.ID {
				t.Fatalf("%s: %s job %d (at %d) listed before job %d (at %d)", when, l.name, a.ID, l.key(a), b.ID, l.key(b))
			}
		}
	}
}

// daemonState is what a restart must rebuild of s: its fingerprint and
// its checkpoint image.
func daemonState(t testing.TB, s *Scheduler) [2]string {
	return [2]string{fingerprint(t, s), checkpointImage(t, s)}
}

// checkpointImage is what a checkpoint of s would hold — plan and
// driver state included — as its journal record.
func checkpointImage(t testing.TB, s *Scheduler) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, err := s.captureCheckpointLocked(0)
	if err != nil {
		t.Fatal(err)
	}
	return string(appendCheckpointRecord(nil, &cs, s.doneLog))
}

// wireTap carries a stream's requests through a Client over net.Pipe to
// a Server, one connection per daemon the stream restarts into, and keeps
// the bytes the servers read and wrote.
type wireTap struct {
	in, out bytes.Buffer
	c       *Client
	served  chan error
}

// tapConn is a server's end of a wireTap's pipe.
type tapConn struct {
	net.Conn
	w *wireTap
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.in.Write(p[:n])
	return n, err
}

func (c tapConn) Write(p []byte) (int, error) {
	c.w.out.Write(p)
	return c.Conn.Write(p)
}

// dial serves s on a fresh pipe and returns how a request reaches it.
func (w *wireTap) dial(t testing.TB, s *Scheduler) func(Request) Response {
	near, far := net.Pipe()
	w.served = make(chan error, 1)
	go func() { w.served <- NewServer(s, true).ServeConn(tapConn{far, w}) }()
	c, err := DialOptions("pipe", ClientOptions{Retries: -1, Dialer: func() (net.Conn, error) { return near, nil }})
	if err != nil {
		t.Fatal(err)
	}
	w.c = c
	return func(req Request) Response {
		resp, err := c.call(req, false)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

func (w *wireTap) hangUp(t testing.TB) {
	w.c.Close()
	if err := <-w.served; err != nil {
		t.Fatal(err)
	}
}

// memFS is an in-memory vfs.FS for a stream's journal, whose syncs an
// enumeration of thousands of streams cannot pay on a disk. It serves
// the journal's use only: writes at the end, seeks from the start,
// truncations that shorten. It logs every file operation, with the files
// before it, for crash; no file's bytes change in place, so the logged
// files share them.
type memFS struct {
	files map[string][]byte
	log   []fsOp
}

// An fsOp is one logged file operation: a create (on open), a write of
// data at off, a truncate, a rename, a remove or a sync.
type fsOp struct {
	kind, name string
	off        int
	data       []byte
	before     map[string][]byte
}

type memFile struct {
	fs   *memFS
	name string
	off  int
}

type memEntry string

func (fs *memFS) do(op fsOp) {
	op.before = maps.Clone(fs.files)
	fs.log = append(fs.log, op)
}

// crash returns the files a process killed at logged operation k leaves
// behind: every earlier operation done and, if k is a write, its first
// torn bytes. A sync changes nothing: a kill -9 loses no byte the process
// handed the operating system, so this is the journal's crash contract
// (DESIGN §8), not a power loss's.
func (fs *memFS) crash(k, torn int) *memFS {
	op := fs.log[k]
	c := &memFS{files: maps.Clone(op.before)}
	if op.kind == "write" {
		c.files[op.name] = append(op.before[op.name][:op.off:op.off], op.data[:torn]...)
	}
	return c
}

func (fs *memFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	if _, ok := fs.files[name]; !ok && flag&os.O_CREATE == 0 {
		return nil, os.ErrNotExist
	} else if !ok || flag&os.O_TRUNC != 0 {
		fs.do(fsOp{kind: "create", name: name})
		fs.files[name] = nil
	}
	return &memFile{fs: fs, name: name}, nil
}

func (fs *memFS) Rename(from, to string) error {
	fs.do(fsOp{kind: "rename", name: from})
	fs.files[to] = fs.files[from]
	delete(fs.files, from)
	return nil
}

func (fs *memFS) Remove(name string) error {
	fs.do(fsOp{kind: "remove", name: name})
	delete(fs.files, name)
	return nil
}

// ReadDir lists every file, sorted: a stream's journal is all there is.
func (fs *memFS) ReadDir(string) ([]os.DirEntry, error) {
	var out []os.DirEntry
	for name := range fs.files {
		out = append(out, memEntry(name))
	}
	slices.SortFunc(out, func(a, b os.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (f *memFile) Read(p []byte) (int, error) {
	n := copy(p, f.fs.files[f.name][min(f.off, len(f.fs.files[f.name])):])
	if f.off += n; n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.do(fsOp{kind: "write", name: f.name, off: f.off, data: slices.Clone(p)})
	f.fs.files[f.name] = append(f.fs.files[f.name][:f.off:f.off], p...)
	f.off += len(p)
	return len(p), nil
}

func (f *memFile) Seek(off int64, _ int) (int64, error) { f.off = int(off); return off, nil }
func (f *memFile) Truncate(n int64) error {
	f.fs.do(fsOp{kind: "truncate", name: f.name})
	f.fs.files[f.name] = f.fs.files[f.name][:n:n]
	return nil
}
func (f *memFile) Name() string             { return f.name }
func (f *memFile) Sync() error              { f.fs.do(fsOp{kind: "sync", name: f.name}); return nil }
func (*memFile) Close() error               { return nil }
func (e memEntry) Name() string             { return string(e) }
func (memEntry) IsDir() bool                { return false }
func (memEntry) Type() fs.FileMode          { return 0 }
func (memEntry) Info() (fs.FileInfo, error) { return nil, fs.ErrInvalid }

// fuzzOps bounds the cost of one FuzzDeliverLockstep input, which a
// fuzzing worker must check within 10 s: a stream of submissions queues
// up to one job an op, and every op replans the queue through the naive
// planners, so an input's cost grows with the square of its length.
// Streams of 500 submissions, a long one of 16-wide jobs and a short one
// of 3-wide jobs, each took ~10 s under the fuzzer's coverage
// instrumentation on 2 cores (go1.24.0); their first 250 ops took ~2 s.
// The seeded streams run whole in TestDeliverLockstep and
// TestDaemonStreamsPinned.
const fuzzOps = 250

// TestDeliverLockstep holds the daemon to BC-1 to BC-4 on the seeded
// streams of the simulator's lockstep tests, through Deliver, Submit,
// Cancel, Fail, Restore, journal restarts and quote twins, under static
// FCFS and LJF drivers (TestDaemonStreamsPinned runs them under SJF and
// the self-tuners). Some plan of a daemon must have been handed a
// withheld job rejoining the queue out of order — a quote twin's do not
// count: each replan of a quote is handed again the jobs the twin's last
// roll-out started — and every stream must have restarted and quoted.
func TestDeliverLockstep(t *testing.T) {
	var rejoined, twinsRejoined int
	for seed := uint64(0); seed < 3; seed++ {
		ops := decodeStream(plantest.Stream(seed))
		count := map[string]int{}
		for _, op := range ops {
			count[op.Op]++
		}
		if count["restart"] == 0 || count["quote"] == 0 {
			t.Fatalf("stream %d restarts %d times and quotes %d times; it must do both", seed, count["restart"], count["quote"])
		}
		for _, p := range []policy.Policy{policy.FCFS, policy.LJF} {
			end := runDeliverLockstep(t, staticStream(t, plantest.Capacity, p), ops)
			rejoined, twinsRejoined = rejoined+end.lanes.Rejoined, twinsRejoined+end.twins.Rejoined
		}
	}
	t.Logf("plans handed a rejoining job: %d of the daemons, %d of their quote twins", rejoined, twinsRejoined)
	if rejoined == 0 {
		t.Error("no plan of a daemon was handed a job rejoining the queue out of order; the streams must reach it")
	}
}

// FuzzDeliverLockstep holds the daemon to the naive daemon on arbitrary
// streams, under a static SJF driver, an SJF-preferred dynP driver and
// an adaptive one whose depth and patience of one flip it within a
// short stream:
// streams of plantest.Capacity processors as decodeStream reads them,
// the seeded ones first, and streams of smallOps, one byte an op, the
// enumeration's shortest for each tie rule and a drained machine first
// (shortSeeds). Either kind stops after fuzzOps events, two bytes each
// in a long stream and one in a short one.
func FuzzDeliverLockstep(f *testing.F) {
	for seed := uint64(0); seed < 3; seed++ {
		f.Add(false, plantest.Stream(seed)[:2*fuzzOps])
	}
	for _, seed := range shortSeeds {
		f.Add(true, encodeShort(f, seed))
	}
	sjf := func() core.Decider { return core.Preferred{Policy: policy.SJF} }
	adapt := func() core.Decider { return adaptive.Must(policy.SJF, 1, 1) }
	f.Fuzz(func(t *testing.T, short bool, data []byte) {
		capacity, ops := plantest.Capacity, decodeStream(data[:min(len(data), 2*fuzzOps)])
		if short {
			capacity, ops = smallCapacity, nil
			for _, b := range data[:min(len(data), fuzzOps)] {
				ops = append(ops, smallOps[int(b)%len(smallOps)])
			}
		}
		runDeliverLockstep(t, staticStream(t, capacity, policy.SJF), ops)
		runDeliverLockstep(t, tunerStream(t, capacity, sjf), ops)
		runDeliverLockstep(t, tunerStream(t, capacity, adapt), ops)
	})
}
