package rms

import (
	"fmt"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
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
