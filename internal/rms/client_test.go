package rms

import (
	"encoding/json"
	"errors"
	"net"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s, err := New(8, &sim.Static{Policy: policy.FCFS}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(s, true)
	addr, err := sv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	return sv, addr.String()
}

func TestClientFullLifecycle(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a, err := c.Submit(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != StateRunning {
		t.Fatalf("a = %+v", a)
	}
	b, err := c.Submit(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateWaiting || b.PlannedStart != 100 {
		t.Fatalf("b = %+v", b)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.UsedProcs != 8 || len(st.Waiting) != 1 {
		t.Fatalf("status = %+v", st)
	}

	if now, err := c.Tick(40); err != nil || now != 40 {
		t.Fatalf("tick: %v %v", now, err)
	}
	if _, err := c.Done(a.ID); err != nil {
		t.Fatal(err)
	}
	bi, err := c.Job(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bi.State != StateRunning || bi.Started != 40 {
		t.Fatalf("b after early completion = %+v", bi)
	}

	fin, err := c.Finished()
	if err != nil {
		t.Fatal(err)
	}
	if len(fin) != 1 || fin[0].ID != a.ID {
		t.Fatalf("finished = %+v", fin)
	}
}

func TestClientCancel(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Submit(8, 100)
	b, _ := c.Submit(1, 10)
	if err := c.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(b.ID); err == nil {
		t.Fatal("cancelled job still queryable")
	}
}

func TestClientServerErrorsSurface(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(99, 10); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := c.Done(12345); err == nil {
		t.Error("done on unknown job accepted")
	}
	// Errors must not desynchronise the stream.
	if _, err := c.Status(); err != nil {
		t.Fatalf("connection desynchronised: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTwoClientsShareOneMachine(t *testing.T) {
	_, addr := startServer(t)
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	c1.Submit(6, 100)
	info, err := c2.Submit(6, 100) // must queue behind client 1's job
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateWaiting {
		t.Fatalf("second client's job = %+v", info)
	}
	st, err := c1.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.UsedProcs != 6 || len(st.Waiting) != 1 {
		t.Fatalf("shared status = %+v", st)
	}
}

func TestClientReport(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, _ := c.Submit(4, 100)
	c.Tick(30)
	c.Done(a.ID)
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 1 || rep.Killed != 0 || rep.SLDwA != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestClientResultsAreTheirOwn: a client decodes every response into the
// one Response it keeps per connection, yet what a call returns is the
// caller's alone and holds nothing of an earlier call. Consecutive
// Status, Deliver, Finished and Quote calls through a pipe server each
// return the scheduler's own answer; scribbling over one call's slices
// changes neither the next call's result nor any earlier one's; a
// deliver after a status carries no status, and a success after a
// rejection no error.
func TestClientResultsAreTheirOwn(t *testing.T) {
	newDriver := func() sim.Driver { return sim.NewDynP(core.Advanced{}) }
	s, err := New(8, newDriver(), 0)
	if err == nil {
		err = s.EnableQuotes(newDriver)
	}
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- NewServer(s, true).ServeConn(far) }()
	c, err := DialOptions("pipe", ClientOptions{Retries: -1, Dialer: func() (net.Conn, error) { return near, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		<-served
	}()

	enc := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	scribble := func(infos []JobInfo) {
		for i := range infos {
			infos[i] = JobInfo{ID: -1, Width: -1, State: -1}
		}
	}
	type result struct {
		name   string
		got    any // a slice, or a struct holding slices
		saved  string
		spoil  func()
		spoilt bool
	}
	var results []*result
	// record holds a call's result to the scheduler's own answer and every
	// earlier result to what it was, then spoils the previous result.
	record := func(name string, got, want any, spoil func()) {
		t.Helper()
		if g, w := enc(got), enc(want); g != w {
			t.Fatalf("%s returned %s, the scheduler answers %s", name, g, w)
		}
		r := &result{name: name, got: got, saved: enc(got), spoil: spoil}
		results = append(results, r)
		for _, e := range results {
			if enc(e.got) != e.saved {
				t.Fatalf("%s changed by a later call: %s, was %s", e.name, enc(e.got), e.saved)
			}
		}
		if len(results) > 1 {
			prev := results[len(results)-2]
			prev.spoil()
			prev.saved = enc(prev.got)
			if enc(r.got) != r.saved {
				t.Fatalf("spoiling %s changed %s", prev.name, r.name)
			}
		}
	}
	jobsOf := func(infos []JobInfo) []JobInfo {
		var want []JobInfo
		for _, info := range infos {
			now, err := s.Job(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, now)
		}
		return want
	}
	// deliver returns the IDs of the batch's jobs that started.
	deliver := func(to int64, done []job.ID, subs ...Submission) (started []job.ID) {
		t.Helper()
		jobs, err := c.Deliver(to, done, subs)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range jobs {
			if info.State == StateRunning {
				started = append(started, info.ID)
			}
		}
		record("deliver", jobs, jobsOf(jobs), func() { scribble(jobs) })
		return started
	}
	status := func() {
		t.Helper()
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		record("status", st, s.Status(), func() { scribble(st.Waiting); scribble(st.Running) })
	}
	finished := func() {
		t.Helper()
		fin, err := c.Finished()
		if err != nil {
			t.Fatal(err)
		}
		record("finished", fin, s.Finished(), func() { scribble(fin) })
	}
	quote := func() {
		t.Helper()
		q, err := c.Quote(4, 30, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Quote(4, 30, 3)
		if err != nil {
			t.Fatal(err)
		}
		record("quote", q, want, func() {
			for i := range q {
				q[i] = Quote{Width: -1, Start: -1}
			}
		})
	}

	started := deliver(0, nil, Submission{Width: 4, Estimate: 100}, Submission{Width: 4, Estimate: 100}, Submission{Width: 8, Estimate: 50})
	status()
	deliver(40, started, Submission{Width: 2, Estimate: 20}, Submission{Width: 6, Estimate: 70})
	finished()
	quote()
	status()
	deliver(60, nil, Submission{Width: 1, Estimate: 10})
	quote()
	finished()
	deliver(200, nil)
	status()

	// No field of an earlier response survives into a later one.
	if resp, err := c.call(Request{Op: "status"}, true); err != nil || resp.Status == nil {
		t.Fatalf("status: %+v, %v", resp, err)
	}
	resp, err := c.call(Request{Op: "deliver", To: 210, Subs: []Submission{{Width: 1, Estimate: 5}}}, false)
	if err != nil || resp.Status != nil || len(resp.Jobs) != 1 {
		t.Fatalf("deliver after status: %+v, %v", resp, err)
	}
	var serr *ServerError
	if resp, err := c.call(Request{Op: "cancel", ID: 999}, false); !errors.As(err, &serr) || resp.Error == "" {
		t.Fatalf("cancel of an unknown job: %+v, %v", resp, err)
	}
	if resp, err := c.call(Request{Op: "finished"}, true); err != nil || !resp.OK || resp.Error != "" || resp.Jobs != nil {
		t.Fatalf("finished after a rejection: %+v, %v", resp, err)
	}
}
