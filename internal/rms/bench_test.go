package rms

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
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
// daemon. "spliced" is the journal's path (the history log encodes each
// finished job once); "encoded" encodes the whole record afresh, as
// encodeRecord does.
func BenchmarkCheckpoint(b *testing.B) {
	finished := func(i int) JobInfo {
		return JobInfo{ID: job.ID(1_000_000 + i), Width: 1 + i%64, Estimate: 3600,
			Submitted: int64(i) * 10, State: StateCompleted, Started: int64(i)*10 + 60, Finished: int64(i)*10 + 1200}
	}
	for _, n := range []int{1_000, 10_000, 50_000} {
		for _, spliced := range []bool{true, false} {
			name := fmt.Sprintf("encoded/done=%dk", n/1000)
			if spliced {
				name = fmt.Sprintf("spliced/done=%dk", n/1000)
			}
			b.Run(name, func(b *testing.B) {
				s, err := New(64, sim.NewDynP(core.Preferred{Policy: policy.SJF}), 0)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 12; i++ { // a head of live jobs and a plan
					if _, err := s.Submit(16, 3600); err != nil {
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
					if spliced {
						_, err = checkpointRecord(&cs, s.doneLog)
					} else {
						_, err = encodeRecord(&journalLine{Checkpoint: &cs})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
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

// BenchmarkDeliver replays one generated KTH set (1,000 jobs at shrink
// 0.8) through Deliver in process, one batch per instant of its
// simulated run — the jobs completing then, the jobs submitted then — as
// the daemon-wire workload feeds dynpd, under the SJF-preferred dynP
// driver, with quotes off and on. A job that runs out its estimate gets
// no completion: the batch's kill sweep ends it. One op is one batch; the
// replay starts over on a fresh scheduler when the set is done. With
// quotes on, every batch's published image also captures the tuner's
// state.
func BenchmarkDeliver(b *testing.B) {
	sets, err := workload.KTH.GenerateSets(1, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	set := sets[0].Shrink(0.8)
	newDriver := func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }
	res, err := sim.Run(set, newDriver())
	if err != nil {
		b.Fatal(err)
	}
	// A daemon numbers jobs in arrival order: set job i is online job i+1.
	type batch struct {
		done []job.ID
		subs []Submission
	}
	batches := map[int64]*batch{}
	at := func(t int64) *batch {
		if batches[t] == nil {
			batches[t] = &batch{}
		}
		return batches[t]
	}
	online := make(map[job.ID]job.ID, len(set.Jobs))
	for i, j := range set.Jobs {
		online[j.ID] = job.ID(i + 1)
		at(j.Submit).subs = append(at(j.Submit).subs, Submission{Width: j.Width, Estimate: j.Estimate})
	}
	for _, r := range res.Records {
		if r.Job.Runtime < r.Job.Estimate {
			at(r.Finish).done = append(at(r.Finish).done, online[r.Job.ID])
		}
	}
	var instants []int64
	for t := range batches {
		instants = append(instants, t)
	}
	slices.Sort(instants)
	for _, quotes := range []bool{false, true} {
		b.Run(fmt.Sprintf("quotes=%t", quotes), func(b *testing.B) {
			var s *Scheduler
			k := len(instants)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if k == len(instants) {
					b.StopTimer()
					if s, err = New(set.Machine, newDriver(), instants[0]); err == nil && quotes {
						err = s.EnableQuotes(newDriver)
					}
					if err != nil {
						b.Fatal(err)
					}
					k = 0
					b.StartTimer()
				}
				t := instants[k]
				if _, err := s.Deliver(t, batches[t].done, batches[t].subs); err != nil {
					b.Fatal(err)
				}
				k++
			}
		})
	}
}
