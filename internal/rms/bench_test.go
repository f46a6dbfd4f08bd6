package rms

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// BenchmarkOnlineLifecycle measures submit/advance/complete throughput of
// the online scheduler core — the per-request cost a dynpd deployment
// pays, dominated by the full replanning at every event.
func BenchmarkOnlineLifecycle(b *testing.B) {
	for _, tc := range []struct {
		name   string
		driver func() sim.Driver
	}{
		{"FCFS", func() sim.Driver { return &sim.Static{Policy: policy.FCFS} }},
		{"dynP", func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := rng.New(1)
			s, err := New(64, tc.driver(), 0)
			if err != nil {
				b.Fatal(err)
			}
			// Offered load is kept well below one (mean area 8x1000
			// against 64 processors x 1000 s interarrival) so the
			// system stays in steady state: per-iteration cost must
			// not depend on b.N.
			now := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += int64(r.Intn(2000))
				if err := s.Advance(now); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Submit(1+r.Intn(16), int64(60+r.Intn(2000))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint measures what a journal checkpoint costs under the
// scheduling lock — capture the state, frame the record — at 1k, 10k and
// 50k finished jobs, one more finishing per checkpoint as in a running
// daemon. "journal" is the journal's one path: appendCheckpointRecord
// into a reused buffer, splicing the history log, which encodes each
// finished job once. "json" is the reference: json.Marshal of the whole
// record afresh. A full 512-event trace ring is attached, as dynpd
// attaches one by default.
func BenchmarkCheckpoint(b *testing.B) {
	finished := func(i int) JobInfo {
		return JobInfo{ID: job.ID(1_000_000 + i), Width: 1 + i%64, Estimate: 3600,
			Submitted: int64(i) * 10, State: StateCompleted, Started: int64(i)*10 + 60, Finished: int64(i)*10 + 1200}
	}
	for _, n := range []int{1_000, 10_000, 50_000} {
		for _, path := range []string{"journal", "json"} {
			b.Run(fmt.Sprintf("%s/done=%dk", path, n/1000), func(b *testing.B) {
				s, err := New(64, sim.NewDynP(core.Preferred{Policy: policy.SJF}), 0)
				if err != nil {
					b.Fatal(err)
				}
				s.AddObserver(NewEventTrace(512))
				for i := 0; i < 12; i++ { // a head of live jobs and a plan
					if _, err := s.Submit(16, 3600); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < 128; i++ { // a full ring: submit, plan, cancel, plan
					info, err := s.Submit(64, 3600)
					if err == nil {
						err = s.Cancel(info.ID)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < n; i++ {
					s.done = append(s.done, finished(i))
				}
				if _, err := s.captureCheckpointLocked(0); err != nil { // the log a daemon already holds
					b.Fatal(err)
				}
				logged := len(s.doneLog)
				var rec []byte
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Back to n finished jobs, then the one that finishes.
					s.done, s.doneLog, s.doneLogged = s.done[:n], s.doneLog[:logged], n
					s.done = append(s.done, finished(n))
					cs, err := s.captureCheckpointLocked(int64(i))
					if err != nil {
						b.Fatal(err)
					}
					if path == "journal" {
						rec = appendCheckpointRecord(rec[:0], &cs, s.doneLog)
					} else {
						rec = marshalRecord(b, &journalLine{Checkpoint: &cs})
					}
				}
				codecSink = rec
			})
		}
	}
}

// Sinks keep the compiler from dropping the measured calls.
var (
	codecSink  []byte
	statusSink *Status
)

// statusResponse is one status response of 40 live jobs (about 4.7 KB,
// what daemon-wire's reads carry) and its line.
func statusResponse(t testing.TB) (Response, []byte) {
	st := Status{Now: 123456, Capacity: 100, UsedProcs: 90, ActivePolicy: "SJF", Scheduler: "dynP/SJF-preferred", Finished: 5000}
	for i := int64(0); i < 20; i++ {
		st.Waiting = append(st.Waiting, JobInfo{ID: job.ID(10000 + i), Width: 8, Estimate: 3600, Submitted: 120000, PlannedStart: 130000 + i})
		st.Running = append(st.Running, JobInfo{ID: job.ID(9000 + i), Width: 4, Estimate: 7200, Submitted: 110000, State: StateRunning, Started: 115000})
	}
	resp := Response{OK: true, Status: &st, Now: st.Now}
	line, err := appendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, line
}

// BenchmarkStatusCodec prices statusResponse both ways, through the wire
// codec and through encoding/json.
func BenchmarkStatusCodec(b *testing.B) {
	resp, line := statusResponse(b)
	b.ReportAllocs()
	b.Run("encode/codec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			codecSink, _ = appendResponse(codecSink[:0], &resp)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			codecSink, _ = json.Marshal(&resp)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r Response
			if !parseResponse(line, &r) {
				b.Fatal("handed off")
			}
			statusSink = r.Status
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r Response
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
			statusSink = r.Status
		}
	})
}

// kthReplay is one generated KTH set (at shrink 0.8) as the daemon-wire
// workload feeds dynpd: one Deliver batch per instant of its simulated
// run under a driver, the SJF-preferred dynP one unless said otherwise —
// the jobs completing then, the jobs submitted then. A job that runs out
// its estimate gets no completion: the batch's kill sweep ends it.
type kthReplay struct {
	set       *job.Set
	newDriver func() sim.Driver
	instants  []int64 // in time order
	batches   map[int64]*kthBatch
}

type kthBatch struct {
	done []job.ID
	subs []Submission
}

// newKTHReplay replays a set of 1,000 jobs under the SJF-preferred dynP
// driver.
func newKTHReplay(b *testing.B) *kthReplay {
	return newKTHReplayOf(b, 1000, func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) })
}

// newKTHReplayOf replays a set of n jobs under drivers from newDriver.
func newKTHReplayOf(b *testing.B, n int, newDriver func() sim.Driver) *kthReplay {
	sets, err := workload.KTH.GenerateSets(1, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := &kthReplay{set: sets[0].Shrink(0.8), batches: map[int64]*kthBatch{}, newDriver: newDriver}
	res, err := sim.Run(r.set, r.newDriver())
	if err != nil {
		b.Fatal(err)
	}
	at := func(t int64) *kthBatch {
		if r.batches[t] == nil {
			r.batches[t] = &kthBatch{}
			r.instants = append(r.instants, t)
		}
		return r.batches[t]
	}
	// A daemon numbers jobs in arrival order: set job i is online job i+1.
	online := make(map[job.ID]job.ID, len(r.set.Jobs))
	for i, j := range r.set.Jobs {
		online[j.ID] = job.ID(i + 1)
		at(j.Submit).subs = append(at(j.Submit).subs, Submission{Width: j.Width, Estimate: j.Estimate})
	}
	for _, rec := range res.Records {
		if rec.Job.Runtime < rec.Job.Estimate {
			at(rec.Finish).done = append(at(rec.Finish).done, online[rec.Job.ID])
		}
	}
	slices.Sort(r.instants)
	return r
}

// deliver sends the batch of instant t.
func (r *kthReplay) deliver(b *testing.B, s *Scheduler, t int64) {
	if _, err := s.Deliver(t, r.batches[t].done, r.batches[t].subs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeliver replays the kthReplay set through Deliver in process,
// with quotes off and on. One op is one batch; the replay starts over on
// a fresh scheduler when the set is done. With quotes on, every batch's
// published image also captures the tuner's state.
func BenchmarkDeliver(b *testing.B) {
	r := newKTHReplay(b)
	for _, quotes := range []bool{false, true} {
		b.Run(fmt.Sprintf("quotes=%t", quotes), func(b *testing.B) {
			var s *Scheduler
			var err error
			k := len(r.instants)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if k == len(r.instants) {
					b.StopTimer()
					if s, err = New(r.set.Machine, r.newDriver(), r.instants[0]); err == nil && quotes {
						err = s.EnableQuotes(r.newDriver)
					}
					if err != nil {
						b.Fatal(err)
					}
					k = 0
					b.StartTimer()
				}
				r.deliver(b, s, r.instants[k])
				k++
			}
		})
	}
}

// BenchmarkQuote times one quote — a warm twin restored from a published
// image, its tuner state included, and run forward until the
// hypothetical job starts. mid quotes a job shaped like the kthReplay
// set's middle one in the state the 1,000-job replay reaches halfway
// through, where it starts at once; static-FCFS the same under a static
// FCFS scheduler. deep quotes daemon-wire's job (8 processors for an
// hour) in the images of a 20,000-job replay whose queue is as deep as
// in its deepest quarter of states, one image after the other as
// daemon-wire's quotes come, where the roll-out is long.
// Besides time and allocations it reports the roll-out's replans per
// quote, the queue quoted and, under a self-tuner, the share of candidate
// schedules its lane carried over instead of building (core.Lane).
func BenchmarkQuote(b *testing.B) {
	r := newKTHReplay(b)
	mid := r.set.Jobs[len(r.set.Jobs)/2]
	deep := newKTHReplayOf(b, 20000, r.newDriver)
	for _, tc := range []struct {
		name     string
		r        *kthReplay
		images   func(b *testing.B, r *kthReplay, s *Scheduler) []*image
		width    int
		estimate int64
	}{
		{"mid", r, halfway, mid.Width, mid.Estimate},
		{"deep", deep, deepest, 8, 3600},
		{"static-FCFS", newKTHReplayOf(b, 1000, func() sim.Driver { return &sim.Static{Policy: policy.FCFS} }), halfway,
			mid.Width, mid.Estimate},
	} {
		s, err := New(tc.r.set.Machine, tc.r.newDriver(), tc.r.instants[0])
		if err != nil {
			b.Fatal(err)
		}
		var twin *countedDriver
		err = s.EnableQuotes(func() sim.Driver {
			drv := tc.r.newDriver()
			twin = &countedDriver{Driver: drv}
			if td, ok := drv.(core.Tuned); ok {
				return countedTuned{twin, td}
			}
			return twin
		})
		if err != nil {
			b.Fatal(err)
		}
		images := tc.images(b, tc.r, s)
		queued := 0
		for _, img := range images {
			queued += len(img.Waiting)
		}
		b.Run(tc.name, func(b *testing.B) {
			quote := func(i int) {
				if _, err := s.quoteIn(images[i%len(images)], tc.width, tc.estimate, 1); err != nil {
					b.Fatal(err)
				}
			}
			quote(0) // the twin is made
			plans, carried := twin.plans, twin.carried()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quote(i)
			}
			b.StopTimer()
			plans = twin.plans - plans
			b.ReportMetric(float64(plans-b.N)/float64(b.N), "rollout-replans/op")
			if dp, ok := twin.Driver.(*sim.DynP); ok {
				k := len(dp.Tuner.Candidates())
				b.ReportMetric(float64(twin.carried()-carried)/float64(plans*k), "carried/candidate")
			}
			b.ReportMetric(float64(queued)/float64(len(images)), "queue")
		})
	}
}

// halfway delivers half of the replay's batches to s and returns the
// image they leave.
func halfway(b *testing.B, r *kthReplay, s *Scheduler) []*image {
	for _, t := range r.instants[:len(r.instants)/2] {
		r.deliver(b, s, t)
	}
	return []*image{s.img.Load()}
}

// deepest delivers the replay's batches to s and returns the images of
// up to 256 of the states whose queue is at least as deep as three in
// four of them, spread over the replay.
func deepest(b *testing.B, r *kthReplay, s *Scheduler) []*image {
	var depths []int
	var images []*image
	for k, t := range r.instants {
		r.deliver(b, s, t)
		depths = append(depths, s.QueueDepth())
		if k%16 == 0 {
			images = append(images, s.img.Load())
		}
	}
	slices.Sort(depths)
	images = slices.DeleteFunc(images, func(img *image) bool { return len(img.Waiting) < depths[len(depths)*3/4] })
	return images[:min(len(images), 256)]
}

// countedDriver counts a quote twin's plans.
type countedDriver struct {
	sim.Driver
	plans int
}

func (d *countedDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	d.plans++
	return d.Driver.Plan(now, capacity, running, waiting)
}

// carried returns the schedules a self-tuning driver's lane carried over.
func (d *countedDriver) carried() int {
	if dp, ok := d.Driver.(*sim.DynP); ok {
		return dp.Tuner.Carried()
	}
	return 0
}

// countedTuned is a countedDriver that takes a self-tuner's decision
// state.
type countedTuned struct {
	*countedDriver
	core.Tuned
}
