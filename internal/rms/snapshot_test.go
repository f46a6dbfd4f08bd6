package rms

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
)

// TestReadsBypassSchedulingLock is the direct proof of the image read
// model: with the scheduling mutex held — as it is for the whole of a
// replanning event — and the journal's mutex held — as it is through an
// append's write and a checkpoint's fsyncs — Status, Report, Finished,
// Now, Quote and the health probe must still return, because they serve
// from the atomically published image and the journal's lock-free sticky
// error. A read that takes either lock deadlocks until the watchdog
// fires.
func TestReadsBypassSchedulingLock(t *testing.T) {
	s, j, _ := openJournaled(t, 16, newDynP(), &memFS{files: map[string][]byte{}}, false, 5)
	if err := s.EnableQuotes(newDynP); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(4, 100); err != nil {
		t.Fatal(err)
	}
	sv := NewServer(s, true)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	type answers struct {
		st     Status
		quotes []Quote
		qerr   error
		health Response
	}
	done := make(chan answers, 1)
	go func() {
		var a answers
		a.st = s.Status()
		_ = s.Report()
		_ = s.Finished()
		_ = s.Now()
		a.quotes, a.qerr = s.Quote(2, 50, 1)
		a.health = sv.Handle(Request{Op: "health"})
		done <- a
	}()
	select {
	case a := <-done:
		if len(a.st.Running) != 1 || a.st.UsedProcs != 4 {
			t.Fatalf("image status lost the running job: %+v", a.st)
		}
		if a.qerr != nil || len(a.quotes) != 1 || a.quotes[0].Start != a.st.Now {
			t.Fatalf("quote for an idle width: %+v, %v", a.quotes, a.qerr)
		}
		if !a.health.OK || a.health.Health == nil || !a.health.Health.Ready {
			t.Fatalf("health probe: %+v", a.health)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Status/Report/Finished/Now/Quote/health blocked on the scheduling or journal mutex")
	}
}

// TestConcurrentReadersWhileScheduling floods the scheduler with status,
// report and finished readers while 1000 jobs are submitted, scheduled
// and reaped. Run under the race detector (make race) it proves the
// image handoff is race-free; the assertions pin the reader-facing
// guarantees: every observed clock and finished count is monotone per
// reader, no observed state is incoherent, and no single read takes
// anywhere near a scheduling event's latency — readers never wait for
// the scheduling lock.
func TestConcurrentReadersWhileScheduling(t *testing.T) {
	const (
		jobs     = 1000
		batch    = 4
		capacity = 64
		readers  = 4
	)
	s, err := New(capacity, sim.NewDynP(core.Preferred{Policy: policy.SJF}), 0)
	if err != nil {
		t.Fatal(err)
	}

	var (
		stop    atomic.Bool
		maxRead atomic.Int64 // worst single read latency, ns
		reads   atomic.Int64
		wg      sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			var lastNow int64
			var lastJobs int
			for !stop.Load() {
				begin := time.Now()
				switch kind % 3 {
				case 0:
					st := s.Status()
					if st.Now < lastNow {
						t.Errorf("status clock went backwards: %d after %d", st.Now, lastNow)
						return
					}
					lastNow = st.Now
					if st.UsedProcs > st.Capacity || len(st.Waiting)+len(st.Running) > jobs {
						t.Errorf("incoherent status: %+v", st)
						return
					}
				case 1:
					rep := s.Report()
					if rep.Jobs < lastJobs {
						t.Errorf("finished count went backwards: %d after %d", rep.Jobs, lastJobs)
						return
					}
					lastJobs = rep.Jobs
					if rep.Jobs > 0 && rep.SLDwA < 1 {
						t.Errorf("impossible SLDwA %f over %d jobs", rep.SLDwA, rep.Jobs)
						return
					}
				case 2:
					fin := s.Finished()
					if len(fin) < lastJobs {
						t.Errorf("finished list shrank: %d after %d", len(fin), lastJobs)
						return
					}
					lastJobs = len(fin)
				}
				if d := time.Since(begin).Nanoseconds(); d > maxRead.Load() {
					maxRead.Store(d)
				}
				reads.Add(1)
			}
		}(r)
	}

	// The writer: submit 1000 jobs in small batches, advancing the clock
	// so estimates expire and the machine churns through the backlog.
	r := rng.New(11)
	now := int64(0)
	for submitted := 0; submitted < jobs; {
		subs := make([]Submission, 0, batch)
		for b := 0; b < batch && submitted+len(subs) < jobs; b++ {
			subs = append(subs, Submission{Width: 1 + r.Intn(8), Estimate: int64(50 + r.Intn(500))})
		}
		now += int64(10 + r.Intn(90))
		if _, err := s.Deliver(now, nil, subs); err != nil {
			t.Fatal(err)
		}
		submitted += len(subs)
	}
	// Drain: run the clock until everything finished.
	for i := 0; i < 10000 && s.Report().Jobs < jobs; i++ {
		now += 500
		if err := s.Advance(now); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := s.Report().Jobs; got != jobs {
		t.Fatalf("%d of %d jobs finished", got, jobs)
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress while the scheduler ran")
	}
	// An image read is two atomic loads and a slice copy — microseconds.
	// The bound is three orders of magnitude above that so slow race-mode
	// CI machines pass, yet far below the seconds a reader stuck behind
	// the scheduling mutex for a 1000-job drain would take.
	if worst := time.Duration(maxRead.Load()); worst > time.Second {
		t.Fatalf("worst read latency %v: readers are contending with the scheduler", worst)
	}
	t.Logf("%d reads, worst latency %v", reads.Load(), time.Duration(maxRead.Load()))
}

// TestReadResponsesOneImage: a read response is answered from one
// image, so a quote's wait is measured from the clock its response
// carries. Quotes served by Server.Handle while a writer keeps moving the
// clock must all satisfy Start == Now + Wait.
func TestReadResponsesOneImage(t *testing.T) {
	factory := func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }
	s, err := New(32, factory(), 0)
	if err == nil {
		err = s.EnableQuotes(factory)
	}
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(s, true)

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(5)
		for now := int64(0); !stop.Load(); {
			now += 1 + int64(r.Intn(60))
			sub := []Submission{{Width: 1 + r.Intn(8), Estimate: int64(20 + r.Intn(200))}}
			if _, err := s.Deliver(now, nil, sub); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const quotes = 5000
	var torn, errs int
	for i := 0; i < quotes; i++ {
		resp := sv.Handle(Request{Op: "quote", Width: 4, Estimate: 100})
		if !resp.OK {
			errs++
			continue
		}
		if q := resp.Quotes[0]; q.Start != NeverStart && q.Start != resp.Now+q.Wait {
			torn++
		}
	}
	stop.Store(true)
	wg.Wait()
	if errs > 0 || torn > 0 {
		t.Fatalf("of %d quote responses, %d failed and %d pair a wait with another image's clock", quotes, errs, torn)
	}
}

// TestRejectedRequestsPublishNothing pins the one write path's rule for
// a refused event: it changes nothing, journals nothing and publishes
// nothing, so with quotes on it captures no driver state either. Every
// mutating op is refused once — a bad shape to submit, a waiting or
// unknown job to complete, an unknown or running job to cancel, a bad
// processor count, a clock moved backwards — through the methods and
// through Server.Handle, on a journaled scheduler, alongside an op no
// write knows and a quote factory for another scheduler. The one
// exception is a deliver batch refused after its clock move: it is
// journaled and publishes the moved clock, but cuts no checkpoint even
// when it is the event that reaches the checkpoint interval.
func TestRejectedRequestsPublishNothing(t *testing.T) {
	for _, wire := range []bool{false, true} {
		s, j, _ := openJournaled(t, 8, newDynP(), &memFS{files: map[string][]byte{}}, false, 1000)
		sv := NewServer(s, true)
		if err := s.EnableQuotes(newDynP); err != nil {
			t.Fatal(err)
		}
		if err := s.Advance(100); err != nil {
			t.Fatal(err)
		}
		running, err := s.Submit(4, 50)
		if err == nil {
			err = s.Fail(2)
		}
		if err != nil {
			t.Fatal(err)
		}
		waiting, err := s.Submit(6, 50)
		if err != nil {
			t.Fatal(err)
		}
		if running.State != StateRunning || waiting.State != StateWaiting {
			t.Fatalf("setup: job %d is %s and job %d is %s", running.ID, running.State, waiting.ID, waiting.State)
		}
		call := func(method func() error, req Request) error {
			if !wire {
				return method()
			}
			if resp := sv.Handle(req); !resp.OK {
				return errors.New(resp.Error)
			}
			return nil
		}
		for _, tc := range []struct {
			name   string
			method func() error
			req    Request
		}{
			{"submit too wide", func() error { _, err := s.Submit(9, 10); return err }, Request{Op: opSubmit, Width: 9, Estimate: 10}},
			{"submit no width", func() error { _, err := s.Submit(0, 10); return err }, Request{Op: opSubmit, Estimate: 10}},
			{"submit no estimate", func() error { _, err := s.Submit(1, 0); return err }, Request{Op: opSubmit, Width: 1}},
			{"done waiting", func() error { _, err := s.Complete(waiting.ID); return err }, Request{Op: opDone, ID: int64(waiting.ID)}},
			{"done unknown", func() error { _, err := s.Complete(99); return err }, Request{Op: opDone, ID: 99}},
			{"cancel unknown", func() error { return s.Cancel(99) }, Request{Op: opCancel, ID: 99}},
			{"cancel running", func() error { return s.Cancel(running.ID) }, Request{Op: opCancel, ID: int64(running.ID)}},
			{"fail none", func() error { return s.Fail(0) }, Request{Op: opFail}},
			{"fail too many", func() error { return s.Fail(7) }, Request{Op: opFail, Procs: 7}},
			{"restore none", func() error { return s.Restore(0) }, Request{Op: opRestore}},
			{"restore too many", func() error { return s.Restore(3) }, Request{Op: opRestore, Procs: 3}},
			{"advance backwards", func() error { return s.Advance(99) }, Request{Op: opTick, To: 99}},
			{"deliver before clock", func() error { _, err := s.Deliver(99, nil, nil); return err }, Request{Op: opDeliver, To: 99}},
			{"unknown op", func() error { _, err := s.apply(&Request{Op: "status"}); return err }, Request{Op: "stat"}},
			{"quotes for another", func() error {
				return s.EnableQuotes(func() sim.Driver { return &sim.Static{Policy: policy.SJF} })
			}, Request{Op: "quote", Width: 9, Estimate: 10}}, // on the wire, a quote too wide
		} {
			before, events := s.img.Load(), j.Events()
			if err := call(tc.method, tc.req); err == nil {
				t.Fatalf("wire %t, %s: accepted", wire, tc.name)
			}
			if s.img.Load() != before {
				t.Errorf("wire %t, %s: refused, yet published a new image", wire, tc.name)
			}
			if got := j.Events(); got != events {
				t.Errorf("wire %t, %s: refused, yet journaled %d events", wire, tc.name, got-events)
			}
		}

		// The exception: completing a waiting job refuses the batch after
		// its clock move, on the event that reaches the checkpoint interval.
		j.SetSnapshotEvery(int(j.Events()) + 1)
		before, events, seg := s.img.Load(), j.Events(), j.Segment()
		err = call(func() error { _, err := s.Deliver(150, []job.ID{waiting.ID}, nil); return err },
			Request{Op: opDeliver, To: 150, Completions: []int64{int64(waiting.ID)}})
		if err == nil {
			t.Fatalf("wire %t: a batch completing a waiting job was accepted", wire)
		}
		if img := s.img.Load(); img == before || img.Now != 150 {
			t.Errorf("wire %t: the refused batch did not publish its clock move (now %d)", wire, img.Now)
		}
		if got := j.Events(); got != events+1 {
			t.Errorf("wire %t: the refused batch journaled %d events, want 1", wire, got-events)
		}
		if got := j.Segment(); got != seg {
			t.Errorf("wire %t: the refused batch cut a checkpoint (segment %d -> %d)", wire, seg, got)
		}
	}
}
