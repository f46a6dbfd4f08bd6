package rms

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
)

// quoteDeciders enumerates the paper's three decider mechanisms plus a
// load-driven one, whose state the twin must restore and whose tuner
// must go on telling it each step's backlog; the honesty guarantee must
// hold for every one of them.
func quoteDeciders() map[string]func() sim.Driver {
	return map[string]func() sim.Driver{
		"simple":        func() sim.Driver { return sim.NewDynP(core.Simple{}) },
		"advanced":      func() sim.Driver { return sim.NewDynP(core.Advanced{}) },
		"SJF-preferred": func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) },
		"adaptive":      func() sim.Driver { return sim.NewDynP(adaptive.Must(policy.SJF, 4, 2)) },
	}
}

// loadedQuoteScheduler builds a quote-enabled scheduler mid-drain: a
// deterministic mix of running, waiting and finished jobs under the
// given driver factory.
func loadedQuoteScheduler(t *testing.T, capacity int, seed uint64, factory func() sim.Driver) *Scheduler {
	t.Helper()
	s, err := New(capacity, factory(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableQuotes(factory); err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	now := int64(0)
	for i := 0; i < 15; i++ {
		subs := make([]Submission, 1+r.Intn(4))
		for k := range subs {
			subs[k] = Submission{Width: 1 + r.Intn(capacity/2), Estimate: int64(50 + r.Intn(400))}
		}
		now += int64(20 + r.Intn(80))
		if _, err := s.Deliver(now, nil, subs); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// driveUntilDone advances the scheduler until the given job leaves the
// waiting queue and then until it leaves the machine, returning its
// final info.
func driveUntilDone(t *testing.T, s *Scheduler, id job.ID) JobInfo {
	t.Helper()
	now := s.Now()
	for i := 0; i < 10000; i++ {
		info, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateWaiting && info.State != StateRunning {
			return info
		}
		now += 25
		if err := s.Advance(now); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("job %d never finished", id)
	return JobInfo{}
}

// TestQuoteHonesty is the differential guarantee of the quote service:
// on a quiescent scheduler (no further external submissions), the quote
// for a job equals the realized start of the same job submitted for
// real — for every decider of quoteDeciders, across job shapes. The twin
// must therefore replay future kills, launches and self-tuning policy
// switches exactly as the live scheduler performs them.
func TestQuoteHonesty(t *testing.T) {
	shapes := []struct {
		width    int
		estimate int64
	}{
		{1, 60}, {3, 250}, {8, 500}, {16, 120},
	}
	for name, factory := range quoteDeciders() {
		t.Run(name, func(t *testing.T) {
			for _, shape := range shapes {
				s := loadedQuoteScheduler(t, 32, 0xA11CE, factory)
				qs, err := s.Quote(shape.width, shape.estimate, 1)
				if err != nil {
					t.Fatal(err)
				}
				q := qs[0]
				if q.Start == NeverStart {
					t.Fatalf("width %d quoted NeverStart on a healthy machine", shape.width)
				}
				info, err := s.Submit(shape.width, shape.estimate)
				if err != nil {
					t.Fatal(err)
				}
				final := driveUntilDone(t, s, info.ID)
				if final.Started != q.Start {
					t.Errorf("%s width=%d est=%d: quoted start %d, realized %d",
						name, shape.width, shape.estimate, q.Start, final.Started)
				}
				if want := q.Start + shape.estimate; final.Finished != want || q.Finish != want {
					t.Errorf("%s width=%d est=%d: quoted finish %d, realized %d (start %d)",
						name, shape.width, shape.estimate, q.Finish, final.Finished, final.Started)
				}
				if q.Wait != q.Start-info.Submitted {
					t.Errorf("quote wait %d inconsistent with start %d at submit time %d",
						q.Wait, q.Start, info.Submitted)
				}
			}
		})
	}
}

// TestQuoteBatchHonesty extends the differential guarantee to batch
// quotes: quoting count replicas equals submitting them back to back.
func TestQuoteBatchHonesty(t *testing.T) {
	const replicas = 3
	for name, factory := range quoteDeciders() {
		t.Run(name, func(t *testing.T) {
			s := loadedQuoteScheduler(t, 32, 0xBA7C4, factory)
			qs, err := s.Quote(5, 300, replicas)
			if err != nil {
				t.Fatal(err)
			}
			if len(qs) != replicas {
				t.Fatalf("asked for %d quotes, got %d", replicas, len(qs))
			}
			ids := make([]job.ID, replicas)
			for i := range ids {
				info, err := s.Submit(5, 300)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = info.ID
			}
			for i, id := range ids {
				final := driveUntilDone(t, s, id)
				if final.Started != qs[i].Start {
					t.Errorf("%s replica %d: quoted start %d, realized %d",
						name, i, qs[i].Start, final.Started)
				}
			}
		})
	}
}

// TestQuoteTwinObservesDecider: the twin's tuner hands its own decider
// every step's backlog exactly like the live one's, so the twin decides
// on what its steps leave waiting after the restore rather than on the
// state frozen in the image, and the live decider is left as it was.
func TestQuoteTwinObservesDecider(t *testing.T) {
	var made []*adaptive.Decider // the live scheduler's first
	factory := func() sim.Driver {
		dec := adaptive.Must(policy.SJF, 4, 2)
		made = append(made, dec)
		return sim.NewDynP(dec)
	}
	s := loadedQuoteScheduler(t, 32, 0xA11CE, factory)
	live, err := made[0].SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quote(3, 250, 1); err != nil {
		t.Fatal(err)
	}
	twin := made[len(made)-1]
	if twin == made[0] {
		t.Fatal("the quote made no twin decider")
	}
	if got, _ := twin.SaveState(); bytes.Equal(got, live) {
		t.Errorf("twin decider still holds the restored state %s after its steps", got)
	}
	if got, _ := made[0].SaveState(); !bytes.Equal(got, live) {
		t.Errorf("the quote moved the live decider from %s to %s", live, got)
	}
}

// TestQuoteNeverStartWiderThanEffective pins the failed-processor
// guard: a quote wider than the effective capacity answers with the
// NeverStart sentinel immediately — no twin run, no infinite forward
// simulation — and the Submit rejection for an impossible width names
// the current effective capacity.
func TestQuoteNeverStartWiderThanEffective(t *testing.T) {
	s := loadedQuoteScheduler(t, 16, 7, quoteDeciders()["SJF-preferred"])
	if err := s.Fail(10); err != nil {
		t.Fatal(err)
	}
	qs, err := s.Quote(8, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if q.Start != NeverStart || q.Finish != NeverStart || q.Wait != NeverStart {
			t.Errorf("replica %d of an unplaceable quote = %+v, want NeverStart sentinels", i, q)
		}
	}
	// The same shape still fits the installed capacity: submitting it is
	// legal (it queues until processors return).
	if _, err := s.Submit(8, 100); err != nil {
		t.Fatalf("submit within installed capacity rejected: %v", err)
	}
	// A width beyond the installed capacity is rejected, naming the
	// effective capacity so the caller sees both limits.
	_, err = s.Submit(20, 100)
	if err == nil || !strings.Contains(err.Error(), "effective capacity now 6") {
		t.Errorf("submit error %v does not name the effective capacity", err)
	}
	if _, err := s.Quote(20, 100, 1); err == nil || !strings.Contains(err.Error(), "effective capacity now 6") {
		t.Errorf("quote error %v does not name the effective capacity", err)
	}
	// Once capacity returns, the same quote gets a real start again.
	if err := s.Restore(10); err != nil {
		t.Fatal(err)
	}
	qs, err = s.Quote(8, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Start == NeverStart {
		t.Error("quote still NeverStart after capacity restore")
	}
}

// TestWarmTwinHypotheticalIDTaken: a warm twin keeps the jobs it made
// from one quote to the next. When a real submission later takes a
// hypothetical's ID with another shape, the twin must hold it as a job
// of its own, leave the hypothetical its lane remembers as it was, and
// answer the next quotes as a fresh twin would: every answer equals the
// naive daemon's, under a self-tuner and a static driver.
func TestWarmTwinHypotheticalIDTaken(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func() sim.Driver
		step    func() plantest.Step
	}{
		{"SJF-preferred", func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) },
			func() plantest.Step { return plantest.NewTuner(core.Preferred{Policy: policy.SJF}, core.MetricSLDwA) }},
		{"FCFS", func() sim.Driver { return &sim.Static{Policy: policy.FCFS} },
			func() plantest.Step { return plantest.Fixed{Policy: policy.FCFS} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const capacity = 8
			s, err := New(capacity, tc.factory(), 0)
			if err == nil {
				err = s.EnableQuotes(tc.factory)
			}
			if err != nil {
				t.Fatal(err)
			}
			naive := plantest.NewDaemon(capacity, tc.step(), 0)
			deliver := func(at int64, subs ...Submission) {
				t.Helper()
				if _, err := s.Deliver(at, nil, subs); err != nil {
					t.Fatal(err)
				}
				shapes := make([]plantest.Shape, len(subs))
				for k, sub := range subs {
					shapes[k] = plantest.Shape{Width: sub.Width, Estimate: sub.Estimate}
				}
				naive.Deliver(at, nil, shapes...)
			}
			quote := func(width int, estimate int64, count int) {
				t.Helper()
				qs, err := s.Quote(width, estimate, count)
				if err != nil {
					t.Fatal(err)
				}
				want := naive.Quote(plantest.Shape{Width: width, Estimate: estimate}, count)
				for k, q := range qs {
					if q.Start != want[k] {
						t.Fatalf("t=%d: the twin quoted %+v, the naive daemon starts %v", s.Now(), qs, want)
					}
				}
				if len(s.twins) != 1 {
					t.Fatalf("%d idle twins after a quote; one quoter needs one", len(s.twins))
				}
			}
			deliver(0, Submission{Width: 6, Estimate: 100}, Submission{Width: 4, Estimate: 60},
				Submission{Width: 3, Estimate: 200}, Submission{Width: 2, Estimate: 40})
			quote(2, 50, 1) // the twin stops as the hypothetical starts
			hyp := job.ID(s.img.Load().NextID + 1)
			tw := s.twins[0]
			var made *job.Job
			for _, r := range tw.eng.Running() {
				if r.Job.ID == hyp {
					made = r.Job
				}
			}
			if made == nil || made.Width != 2 || made.Estimate != 50 {
				t.Fatalf("the twin holds %+v for the hypothetical %d", made, hyp)
			}
			was := *made

			deliver(10, Submission{Width: 5, Estimate: 30}) // takes the hypothetical's ID
			quote(2, 50, 2)
			quote(1, 500, 1)
			if s.twins[0] != tw {
				t.Fatal("the later quotes ran on another twin")
			}
			// The job the twin made for the real submission, from the
			// image it restored last.
			var real *job.Job
			for _, j := range tw.fork.waiting {
				if j.ID == hyp {
					real = j
				}
			}
			for _, r := range tw.fork.running {
				if r.Job.ID == hyp {
					real = r.Job
				}
			}
			if real == nil || real == made || real.Width != 5 || *made != was {
				t.Fatalf("the real job %d is %+v, and the hypothetical became %+v (was %+v)", hyp, real, *made, was)
			}
		})
	}
}

// TestQuoteValidation pins the quote's error paths: bad arguments answer
// before any twin is built, and a twin whose driver cannot restore the
// image's decision state fails the quote instead of answering it.
func TestQuoteValidation(t *testing.T) {
	plain := newFCFS(t, 8)
	if _, err := plain.Quote(1, 1, 1); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Errorf("quote on a quote-less scheduler: %v", err)
	}

	s := loadedQuoteScheduler(t, 8, 3, quoteDeciders()["simple"])
	for _, tc := range []struct {
		width    int
		estimate int64
		count    int
	}{
		{0, 100, 1}, {-1, 100, 1}, {9, 100, 1},
		{1, 0, 1}, {1, -5, 1},
		{1, 100, -1}, {1, 100, MaxQuoteBatch + 1},
	} {
		if _, err := s.Quote(tc.width, tc.estimate, tc.count); err == nil {
			t.Errorf("Quote(%d, %d, %d) accepted", tc.width, tc.estimate, tc.count)
		}
	}
	// count 0 means 1, matching an omitted protocol field.
	qs, err := s.Quote(1, 100, 0)
	if err != nil || len(qs) != 1 {
		t.Errorf("Quote(count=0) = %v, %v; want one quote", qs, err)
	}

	// A factory whose driver wears the right name but cannot restore the
	// live tuner's state passes EnableQuotes's probe and fails in the twin.
	name := s.driver.Name()
	if err := s.EnableQuotes(func() sim.Driver {
		return &misnamedDriver{Static: sim.Static{Policy: policy.FCFS}, name: name}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quote(2, 100, 1); err == nil || !strings.Contains(err.Error(), "cannot restore") {
		t.Errorf("quote with a stateless twin driver for a stateful scheduler: %v", err)
	}
}

// TestQuoteJournalSticky: a failed journal refuses every mutation, so
// quotes — predictions about submissions that can no longer happen —
// are refused too, before any twin is built.
func TestQuoteJournalSticky(t *testing.T) {
	s, _ := deadJournal(t)
	if err := s.EnableQuotes(newDynP); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quote(2, 100, 1); err != nil {
		t.Fatalf("quote on a healthy journaled scheduler: %v", err)
	}
	// Every write under the journal fails: the next append fails sticky.
	if _, err := s.Submit(1, 10); err == nil {
		t.Fatal("submit succeeded with a dead journal")
	}
	_, err := s.Quote(2, 100, 1)
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("quote with a failed journal: %v", err)
	}
}

// TestQuoteMidReplay: while the daemon replays its journal the server
// is not ready, and the quote op is refused like every other non-health
// op.
func TestQuoteMidReplay(t *testing.T) {
	s := loadedQuoteScheduler(t, 8, 5, quoteDeciders()["simple"])
	sv := NewServer(s, true)
	sv.SetReady(false)
	resp := sv.Handle(Request{Op: "quote", Width: 2, Estimate: 100})
	if resp.OK || !strings.Contains(resp.Error, "replay") {
		t.Errorf("quote mid-replay = %+v", resp)
	}
	sv.SetReady(true)
	if resp := sv.Handle(Request{Op: "quote", Width: 2, Estimate: 100}); !resp.OK {
		t.Errorf("quote after replay = %+v", resp)
	}
}

// misnamedDriver wears the live driver's name but cannot restore its
// state: EnableQuotes's name probe passes, and the failure surfaces
// inside the twin's restore.
type misnamedDriver struct {
	sim.Static
	name string
}

func (d *misnamedDriver) Name() string { return d.name }

// TestEnableQuotesRejectsMismatchedFactory: a factory that builds a
// different scheduler than the live one would produce confidently wrong
// quotes; it is rejected at enable time.
func TestEnableQuotesRejectsMismatchedFactory(t *testing.T) {
	s := newFCFS(t, 8)
	err := s.EnableQuotes(newDynP)
	if err == nil || !strings.Contains(err.Error(), "factory builds") {
		t.Errorf("mismatched factory accepted: %v", err)
	}
	if err := s.EnableQuotes(nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := s.EnableQuotes(func() sim.Driver { return nil }); err == nil {
		t.Error("nil-driver factory accepted")
	}
	if err := s.EnableQuotes(func() sim.Driver { return &sim.Static{Policy: policy.FCFS} }); err != nil {
		t.Errorf("matching factory rejected: %v", err)
	}
	if _, err := s.Quote(4, 100, 1); err != nil {
		t.Errorf("quote on a stateless scheduler: %v", err)
	}
}

// TestConcurrentQuoteSoak is the isolation proof at scale: thousands of
// concurrent quotes hammer the scheduler while it drains a 1000-job
// workload, and the drain must finish every job as the naive daemon fed
// the same requests does — plus a latency bound showing quotes never
// block mutators (Quote never takes the scheduling lock at all). Run
// under -race by make race.
func TestConcurrentQuoteSoak(t *testing.T) {
	const (
		jobs        = 1000
		capacity    = 64
		quoters     = 4
		quoteTarget = 10000
	)
	factory := func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }

	// The drain's requests go to a naive daemon too, which answers no
	// quotes: the quote storm must not change one byte of scheduling
	// outcome.
	naive := plantest.NewDaemon(capacity, plantest.NewTuner(core.Preferred{Policy: policy.SJF}, core.MetricSLDwA), 0)
	drain := func(s *Scheduler) time.Duration {
		r := rng.New(1234)
		now := int64(0)
		var maxMut time.Duration
		mutate := func(f func() error) {
			begin := time.Now()
			if err := f(); err != nil {
				t.Error(err)
			}
			if d := time.Since(begin); d > maxMut {
				maxMut = d
			}
		}
		for submitted := 0; submitted < jobs; {
			subs := make([]Submission, 0, 4)
			for b := 0; b < 4 && submitted+len(subs) < jobs; b++ {
				subs = append(subs, Submission{Width: 1 + r.Intn(8), Estimate: int64(50 + r.Intn(400))})
			}
			now += int64(20 + r.Intn(120))
			mutate(func() error { _, err := s.Deliver(now, nil, subs); return err })
			shapes := make([]plantest.Shape, len(subs))
			for k, sub := range subs {
				shapes[k] = plantest.Shape{Width: sub.Width, Estimate: sub.Estimate}
			}
			naive.Deliver(now, nil, shapes...)
			submitted += len(subs)
		}
		for i := 0; i < 10000 && s.Report().Jobs < jobs; i++ {
			now += 400
			mutate(func() error { return s.Advance(now) })
			naive.Advance(now)
		}
		return maxMut
	}

	s, err := New(capacity, factory(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableQuotes(factory); err != nil {
		t.Fatal(err)
	}
	var (
		stop    atomic.Bool
		quotes  atomic.Int64
		never   atomic.Int64
		wg      sync.WaitGroup
		quoteRg [quoters]*rng.Stream
	)
	for i := range quoteRg {
		quoteRg[i] = rng.New(uint64(100 + i))
	}
	for w := 0; w < quoters; w++ {
		wg.Add(1)
		go func(r *rng.Stream) {
			defer wg.Done()
			for !stop.Load() {
				count := 1 + r.Intn(2)
				qs, err := s.Quote(1+r.Intn(4), int64(50+r.Intn(150)), count)
				if err != nil {
					t.Errorf("concurrent quote: %v", err)
					return
				}
				if len(qs) != count {
					t.Errorf("asked %d quotes, got %d", count, len(qs))
					return
				}
				for _, q := range qs {
					if q.Start == NeverStart {
						never.Add(1) // impossible: nothing ever fails here
					}
				}
				quotes.Add(int64(count))
			}
		}(quoteRg[w])
	}

	maxMut := drain(s)
	// Keep quoting against the drained scheduler until the target is
	// met; post-drain twins are nearly free, the in-drain ones were the
	// expensive, contended ones.
	for quotes.Load() < quoteTarget && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if got := quotes.Load(); got < quoteTarget {
		t.Errorf("soak produced %d quotes, want >= %d", got, quoteTarget)
	}
	if n := never.Load(); n != 0 {
		t.Errorf("%d quotes answered NeverStart on a healthy machine", n)
	}
	// Mutators never touch the quote path; the bound is generous enough
	// for race-instrumented CI but catches real starvation outright.
	if maxMut > 5*time.Second {
		t.Errorf("worst mutator op took %v under quote load", maxMut)
	}
	sameFinished(t, s.Finished(), naive.Records)
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	t.Logf("soak: %d quotes, worst mutator op %v", quotes.Load(), maxMut)
}

// quoteServer starts a quote-enabled dynP server on a loopback listener.
func quoteServer(t *testing.T, configure func(*Server)) (*Server, *Scheduler, string) {
	t.Helper()
	factory := func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }
	s, err := New(16, factory(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableQuotes(factory); err != nil {
		t.Fatal(err)
	}
	sv := NewServer(s, true)
	if configure != nil {
		configure(sv)
	}
	addr, err := sv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	return sv, s, addr.String()
}

// TestQuoteOverProtocol drives the quote op end to end over the wire.
func TestQuoteOverProtocol(t *testing.T) {
	_, s, addr := quoteServer(t, nil)
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(4, 200); err != nil {
			t.Fatal(err)
		}
	}
	c, err := DialOptions(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs, err := c.Quote(4, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("got %d quotes, want 2", len(qs))
	}
	want, err := s.Quote(4, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qs, want) {
		t.Errorf("wire quotes %+v != direct quotes %+v", qs, want)
	}
	// Deterministic rejection: not busy, not retried, surfaced as a
	// server error.
	if _, err := c.Quote(99, 300, 1); err == nil {
		t.Error("oversized quote width accepted over the wire")
	} else {
		var serr *ServerError
		if !errors.As(err, &serr) || serr.Busy {
			t.Errorf("oversized width error = %v, want non-busy server error", err)
		}
	}
}

// TestQuoteShedsBeforeReads pins the shedding order: on a degraded
// connection quotes are shed exactly like reads, and the quote kill
// switch (QuoteMax < 0) sheds every quote even at full service while
// reads keep flowing — quotes are always the first load dropped.
func TestQuoteShedsBeforeReads(t *testing.T) {
	sv, _, _ := quoteServer(t, func(sv *Server) { sv.QuoteMax = -1 })
	// Degraded connection: quote is a read-class op and is shed.
	resp := sv.handle(Request{Op: "quote", Width: 2, Estimate: 100}, true)
	if !resp.Busy {
		t.Errorf("degraded quote = %+v, want busy", resp)
	}
	// Full service with the kill switch: quotes shed, reads still served.
	resp = sv.handle(Request{Op: "quote", Width: 2, Estimate: 100}, false)
	if !resp.Busy {
		t.Errorf("kill-switched quote = %+v, want busy", resp)
	}
	if resp := sv.handle(Request{Op: "status"}, false); !resp.OK {
		t.Errorf("read shed alongside quotes: %+v", resp)
	}
	if resp := sv.handle(Request{Op: "submit", Width: 2, Estimate: 100}, false); !resp.OK {
		t.Errorf("mutator shed alongside quotes: %+v", resp)
	}
}

// TestQuoteAdmissionLane floods a stalled quote lane and asserts the
// contract: exactly QuoteMax requests are admitted (and wait for a
// worker), everything beyond is an honest busy shed — never an error.
// The single worker slot is held by the test, so the backpressure is
// deterministic rather than a race against quote latency.
func TestQuoteAdmissionLane(t *testing.T) {
	sv, s, _ := quoteServer(t, func(sv *Server) {
		sv.QuoteWorkers = 1
		sv.QuoteMax = 2
	})
	for i := 0; i < 30; i++ {
		if _, err := s.Submit(1+i%8, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	sv.quoteOnce.Do(sv.initQuoteLane)
	sv.quoteSem <- struct{}{} // stall the lane's only worker
	const flood = 32
	var ok, busy atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := sv.Handle(Request{Op: "quote", Width: 2, Estimate: 150})
			switch {
			case resp.OK:
				ok.Add(1)
			case resp.Busy:
				busy.Add(1)
			default:
				t.Errorf("quote flood produced a hard error: %+v", resp)
			}
		}()
	}
	// The two admitted requests wait on the stalled worker; the other
	// thirty must shed.
	for deadline := time.Now().Add(10 * time.Second); busy.Load() < flood-2; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d sheds against a stalled 2-slot lane", busy.Load())
		}
		time.Sleep(time.Millisecond)
	}
	<-sv.quoteSem // unstall; the admitted pair completes
	wg.Wait()
	if ok.Load() != 2 || busy.Load() != flood-2 {
		t.Errorf("flood: %d served, %d shed; want 2 and %d", ok.Load(), busy.Load(), flood-2)
	}
}

// TestClientQuoteRetriesBusy: busy sheds are not verdicts; the client
// treats quote as idempotent and retries through them with backoff.
func TestClientQuoteRetriesBusy(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A hand-rolled server: busy for the first two requests, then real
	// quotes.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		for served := 0; ; served++ {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			_ = n
			if served < 2 {
				fmt.Fprintf(conn, "{\"ok\":false,\"busy\":true,\"error\":\"rms: server busy: quote shed under load (retry)\",\"now\":0}\n")
				continue
			}
			fmt.Fprintf(conn, "{\"ok\":true,\"quotes\":[{\"width\":2,\"estimate\":100,\"start\":7,\"finish\":107,\"wait\":7}],\"now\":0}\n")
		}
	}()
	c, err := DialOptions(l.Addr().String(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs, err := c.Quote(2, 100, 1)
	if err != nil {
		t.Fatalf("quote through busy sheds: %v", err)
	}
	if len(qs) != 1 || qs[0].Start != 7 {
		t.Errorf("quote = %+v", qs)
	}
}

// TestClientQuoteRetriesNetworkFault: quote is idempotent, so a severed
// connection is retried transparently like the other read ops.
func TestClientQuoteRetriesNetworkFault(t *testing.T) {
	_, s, addr := quoteServer(t, nil)
	if _, err := s.Submit(2, 100); err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Quote(2, 100, 1); err != nil {
		t.Fatal(err)
	}
	// Sever the connection; the idempotent retry loop reconnects.
	c.conn.Close()
	if _, err := c.Quote(2, 100, 1); err != nil {
		t.Fatalf("quote after severed connection: %v", err)
	}
}
