package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"dynp"
	"dynp/internal/job"
	"dynp/internal/rms"
	"dynp/internal/sim"
)

// instant is one deliver request: everything that happens at one
// simulated time, as indices into the job set.
type instant struct {
	t    int64
	done []int // jobs whose client reports completion at t
	subs []int // jobs submitted at t
}

// buildStream turns a job set and its reference simulation into the
// event stream an online front end would see, one instant per distinct
// submission or completion time — exactly the simulator's scheduling
// events. A job that exhausts its estimate sends no completion: the
// RMS's kill sweep must end it at the same instant on its own.
func buildStream(set *job.Set, res *sim.Result) []instant {
	index := make(map[job.ID]int, len(set.Jobs))
	for i, j := range set.Jobs {
		index[j.ID] = i
	}
	at := make(map[int64]*instant)
	get := func(t int64) *instant {
		in, ok := at[t]
		if !ok {
			in = &instant{t: t}
			at[t] = in
		}
		return in
	}
	for i, j := range set.Jobs { // submission order within an instant
		in := get(j.Submit)
		in.subs = append(in.subs, i)
	}
	for _, r := range res.Records { // completion order within an instant
		in := get(r.Finish)
		if r.Job.Runtime < r.Job.Estimate {
			in.done = append(in.done, index[r.Job.ID])
		}
	}
	stream := make([]instant, 0, len(at))
	for _, in := range at {
		stream = append(stream, *in)
	}
	sort.Slice(stream, func(a, b int) bool { return stream[a].t < stream[b].t })
	return stream
}

// rmsConn is the slice of the online API the replay drives; the ladder
// supplies it from each layer in turn, rms.Client for the wire rungs.
type rmsConn interface {
	Deliver(t int64, completions []job.ID, subs []rms.Submission) ([]rms.JobInfo, error)
	Status() (rms.Status, error)
	Quote(width int, estimate int64, count int) ([]rms.Quote, error)
	Finished() ([]rms.JobInfo, error)
	Report() (rms.Report, error)
}

// schedConn calls the scheduler's methods directly (ladder rungs a, b).
type schedConn struct{ s *rms.Scheduler }

func (c schedConn) Deliver(t int64, done []job.ID, subs []rms.Submission) ([]rms.JobInfo, error) {
	return c.s.Deliver(t, done, subs)
}
func (c schedConn) Status() (rms.Status, error) { return c.s.Status(), nil }
func (c schedConn) Quote(w int, e int64, n int) ([]rms.Quote, error) {
	return c.s.Quote(w, e, n)
}
func (c schedConn) Finished() ([]rms.JobInfo, error) { return c.s.Finished(), nil }
func (c schedConn) Report() (rms.Report, error)      { return c.s.Report(), nil }

// handleConn goes through the protocol dispatcher without encoding
// anything (ladder rung c).
type handleConn struct{ sv *rms.Server }

func (c handleConn) call(req rms.Request) (rms.Response, error) {
	resp := c.sv.Handle(req)
	if !resp.OK {
		return resp, &rms.ServerError{Msg: resp.Error, Busy: resp.Busy}
	}
	return resp, nil
}
func (c handleConn) Deliver(t int64, done []job.ID, subs []rms.Submission) ([]rms.JobInfo, error) {
	ids := make([]int64, len(done))
	for i, id := range done {
		ids[i] = int64(id)
	}
	resp, err := c.call(rms.Request{Op: "deliver", To: t, Completions: ids, Subs: subs})
	return resp.Jobs, err
}
func (c handleConn) Status() (rms.Status, error) {
	resp, err := c.call(rms.Request{Op: "status"})
	if err != nil {
		return rms.Status{}, err
	}
	return *resp.Status, nil
}
func (c handleConn) Quote(w int, e int64, n int) ([]rms.Quote, error) {
	resp, err := c.call(rms.Request{Op: "quote", Width: w, Estimate: e, Count: n})
	return resp.Quotes, err
}
func (c handleConn) Finished() ([]rms.JobInfo, error) {
	resp, err := c.call(rms.Request{Op: "finished"})
	return resp.Finished, err
}
func (c handleConn) Report() (rms.Report, error) {
	resp, err := c.call(rms.Request{Op: "report"})
	if err != nil {
		return rms.Report{}, err
	}
	return *resp.Report, nil
}

// The read mix of the replay: after every readEvery-th deliver the
// second connection asks for the status and for one quote.
const (
	readEvery     = 8
	quoteWidth    = 8
	quoteEstimate = 3600
)

// replayResult is what one pass of a stream through an rmsConn measured.
type replayResult struct {
	wall                float64 // seconds, first request sent to last reply parsed
	deliverMs, statusMs []float64
	quoteMs             []float64
	quoteQueue          []int // waiting jobs when each quote was asked
	attempted, failed   int
	err                 error    // first failure
	onlineID            []job.ID // set index -> the server's ID for that job
}

func (r *replayResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// replay feeds the stream to mut strictly request-after-reply, with the
// status and quote reads going to read. Every request is one attempted
// operation; an error of any kind — including a shed "busy", since the
// clients here never retry — is a failed one. A failed deliver aborts
// the pass, because every later completion would name a job the server
// never accepted. onStatus, when set, sees each status untimed.
func replay(mut, read rmsConn, set *job.Set, stream []instant, onStatus func(rms.Status)) *replayResult {
	r := &replayResult{onlineID: make([]job.ID, len(set.Jobs))}
	var done []job.ID
	var subs []rms.Submission
	start := time.Now()
	for k, in := range stream {
		done, subs = done[:0], subs[:0]
		for _, i := range in.done {
			done = append(done, r.onlineID[i])
		}
		for _, i := range in.subs {
			subs = append(subs, rms.Submission{Width: set.Jobs[i].Width, Estimate: set.Jobs[i].Estimate})
		}
		r.attempted++
		t0 := time.Now()
		infos, err := mut.Deliver(in.t, done, subs)
		r.deliverMs = append(r.deliverMs, ms(time.Since(t0)))
		if err == nil && len(infos) != len(subs) {
			err = fmt.Errorf("deliver at t=%d: %d infos for %d submissions", in.t, len(infos), len(subs))
		}
		if err != nil {
			r.fail(err)
			break
		}
		for n, i := range in.subs {
			r.onlineID[i] = infos[n].ID
		}
		if (k+1)%readEvery != 0 {
			continue
		}
		r.attempted++
		t0 = time.Now()
		st, err := read.Status()
		r.statusMs = append(r.statusMs, ms(time.Since(t0)))
		if err != nil {
			r.fail(err)
		} else if st.Now != in.t {
			r.fail(fmt.Errorf("status after deliver at t=%d reads now=%d", in.t, st.Now))
		} else if onStatus != nil {
			onStatus(st)
		}
		r.attempted++
		t0 = time.Now()
		quotes, err := read.Quote(quoteWidth, quoteEstimate, 1)
		r.quoteMs = append(r.quoteMs, ms(time.Since(t0)))
		r.quoteQueue = append(r.quoteQueue, len(st.Waiting))
		if err == nil && (len(quotes) != 1 || quotes[0].Start < in.t) {
			err = fmt.Errorf("quote at t=%d: implausible answer %+v", in.t, quotes)
		}
		if err != nil {
			r.fail(err)
		}
	}
	r.wall = time.Since(start).Seconds()
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func jsonLen(v any) int {
	b, _ := json.Marshal(v) // plain structs of numbers and strings: cannot fail
	return len(b)
}

// checkFinished is the wire workload's oracle: every job the online
// side finished must have started and finished exactly when the
// reference simulation says. It counts as one operation.
func (r *replayResult) checkFinished(conn rmsConn, set *job.Set, res *sim.Result) {
	r.attempted++
	finished, err := conn.Finished()
	if err != nil {
		r.fail(fmt.Errorf("finished: %w", err))
		return
	}
	if len(finished) != len(set.Jobs) {
		r.fail(fmt.Errorf("online side finished %d of %d jobs", len(finished), len(set.Jobs)))
		return
	}
	byID := make(map[job.ID]rms.JobInfo, len(finished))
	for _, info := range finished {
		byID[info.ID] = info
	}
	index := make(map[job.ID]int, len(set.Jobs))
	for i, j := range set.Jobs {
		index[j.ID] = i
	}
	for _, rec := range res.Records {
		info, ok := byID[r.onlineID[index[rec.Job.ID]]]
		if !ok || info.Started != rec.Start || info.Finished != rec.Finish {
			r.fail(fmt.Errorf("job %d: online ran [%d, %d], reference [%d, %d]",
				rec.Job.ID, info.Started, info.Finished, rec.Start, rec.Finish))
			return
		}
	}
}

// newScheduler builds an in-process scheduler configured like dynpd's
// defaults: quotes on, the 512-event trace ring attached.
func newScheduler(capacity int) (*rms.Scheduler, *rms.EventTrace, error) {
	spec, err := dynp.ParseSchedulerSpec(schedulerName)
	if err != nil {
		return nil, nil, err
	}
	s, err := rms.New(capacity, spec.New(), 0)
	if err != nil {
		return nil, nil, err
	}
	if err := s.EnableQuotes(spec.New); err != nil {
		return nil, nil, err
	}
	trace := rms.NewEventTrace(512)
	s.AddObserver(trace)
	return s, trace, nil
}

func newServer(s *rms.Scheduler, trace *rms.EventTrace) *rms.Server {
	sv := rms.NewServer(s, true)
	sv.Trace = trace
	return sv
}

// noRetry makes a shed or dropped request surface as an error instead
// of a silently longer latency sample.
var noRetry = rms.ClientOptions{Retries: -1}

// pipeClient serves one in-memory connection with sv.ServeConn and
// returns a client on its other end (ladder rung d). Closing the client
// ends the serving goroutine, which stop waits for.
func pipeClient(sv *rms.Server) (c *rms.Client, stop func() error, err error) {
	near, far := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- sv.ServeConn(far) }()
	opts := noRetry
	opts.Dialer = func() (net.Conn, error) { return near, nil }
	c, err = rms.DialOptions("pipe", opts)
	if err != nil {
		near.Close()
		<-served
		return nil, nil, err
	}
	return c, func() error {
		c.Close() // the server reads EOF and ServeConn returns
		return <-served
	}, nil
}

// defaultWorkDir is where the benchmark writes unless told otherwise:
// the dynpd binary, and one journal directory per daemon. It sits
// inside the checkout the benchmark runs from and is ignored by git.
const defaultWorkDir = ".bench_build"

// buildDaemon compiles cmd/dynpd from the checkout's source into dir.
func buildDaemon(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "dynpd"))
	if err != nil {
		return "", err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "dynp/cmd/dynpd").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build dynp/cmd/dynpd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one dynpd subprocess on a journal of its own.
type daemon struct {
	bin, dir string
	procs    int
	cmd      *exec.Cmd
	addr     string
}

// startDaemon launches dynpd with its documented defaults (virtual
// clock, quotes on, default checkpoint interval) on journal dir/journal
// and waits until it reports ready. On an existing journal this is a
// restart: the daemon replays it in fast mode first.
func startDaemon(bin, dir string, procs int) (*daemon, error) {
	d := &daemon{bin: bin, dir: dir, procs: procs}
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-procs", fmt.Sprint(procs), "-scheduler", schedulerName,
		"-journal", d.journal(), "-replay-mode", "fast")
	var stderr strings.Builder
	d.cmd.Stderr = &stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if d.addr == "" {
			if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
				d.addr = strings.TrimSpace(string(data))
			}
		}
		if d.addr != "" {
			if c, err := rms.DialOptions(d.addr, noRetry); err == nil {
				ready, _, err := c.Ready()
				c.Close()
				if err == nil && ready {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("dynpd not ready after 30s: %s", stderr.String())
}

func (d *daemon) journal() string { return filepath.Join(d.dir, "journal") }

func (d *daemon) dial() (*rms.Client, error) { return rms.DialOptions(d.addr, noRetry) }

// kill ends the daemon the way a crash would (SIGKILL) and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// stop asks for a graceful shutdown and waits for the process to end,
// falling back to kill if it does not within ten seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("dynpd ignored SIGTERM")
	}
}

// journalStats reads what the daemon left in its journal directory:
// total bytes and segment count over the active and rotated segments,
// and the size of the newest checkpoint record (the second line of the
// active segment, after its header).
func journalStats(journal string) (bytes int64, segments int, checkpointBytes int64, err error) {
	paths, err := filepath.Glob(journal + "*")
	if err != nil {
		return 0, 0, 0, err
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, 0, 0, err
		}
		bytes += fi.Size()
		segments++
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		return 0, 0, 0, err
	}
	// Records are "crc32c-hex(8) SP json LF".
	if lines := strings.SplitN(string(data), "\n", 3); len(lines) == 3 && len(lines[1]) > 9 &&
		strings.HasPrefix(lines[1][9:], `{"checkpoint":`) {
		checkpointBytes = int64(len(lines[1]) + 1)
	}
	return bytes, segments, checkpointBytes, nil
}
