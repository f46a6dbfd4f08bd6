package plan

import (
	"fmt"
	"testing"

	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/workload"
)

// BenchmarkBuild measures full-schedule construction at several queue
// depths — the dominant cost of a self-tuning step (three builds per
// scheduling event).
func BenchmarkBuild(b *testing.B) {
	for _, queued := range []int{16, 128, 1024} {
		for _, p := range policy.Candidates {
			b.Run(fmt.Sprintf("queue%d/%s", queued, p), func(b *testing.B) {
				r := rng.New(7)
				waiting := make([]*job.Job, queued)
				for i := range waiting {
					est := int64(1 + r.Intn(20000))
					waiting[i] = &job.Job{
						ID: job.ID(i + 1), Submit: int64(r.Intn(1000)),
						Width: 1 + r.Intn(128), Estimate: est, Runtime: est,
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					build(1000, 128, nil, waiting, p)
				}
			})
		}
	}
}

// BenchmarkCandidateSet measures the placement work of one self-tuning
// step at a running-job-heavy event, with allocation reporting: one base
// reset, one build per candidate policy into that candidate's schedule,
// all kept across iterations the way core.Lane keeps them. "sorted" pays
// the full-sort fallback per candidate, "ordered" reads orders kept up to
// date elsewhere (policy.Views).
func BenchmarkCandidateSet(b *testing.B) {
	const capacity = 128
	for _, queued := range []int{64, 256, 1024} {
		running, waiting := randomState(5, capacity, 32, queued)
		orders := make([][]*job.Job, len(policy.Candidates))
		for i, p := range policy.Candidates {
			orders[i] = policy.Order(p, waiting)
		}
		for _, sorted := range []bool{true, false} {
			name := fmt.Sprintf("queue%d/ordered", queued)
			if sorted {
				name = fmt.Sprintf("queue%d/sorted", queued)
			}
			b.Run(name, func(b *testing.B) {
				var base Base
				slots := make([]Schedule, len(policy.Candidates))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					base.Reset(1000, capacity, running)
					for k, p := range policy.Candidates {
						ordered := orders[k]
						if sorted {
							ordered = policy.Order(p, waiting)
						}
						base.BuildInto(&slots[k], ordered, p)
						slots[k].PlannedSLDwA()
					}
				}
			})
		}
	}
}

// ctcState draws a machine state shaped like the benchmark's sim-heavy
// workload (CTC at shrink 0.8) right after a scheduling event: 430
// processors, about 35 jobs from the CTC model running — the first ones
// some way into their estimates — and a queue in which nothing can start
// now, because everything that could was started (the planner's own
// backfilling, replayed here until it launches nothing more).
func ctcState(tb testing.TB, queued int) (now int64, running []Running, waiting []*job.Job) {
	set, err := workload.CTC.Generate(4*queued, rng.New(2004))
	if err != nil {
		tb.Fatal(err)
	}
	now = 1 << 20
	r := rng.New(12)
	used, next := 0, 0
	for ; len(running) < 25 && used+set.Jobs[next].Width <= workload.CTC.Machine; next++ {
		j := set.Jobs[next]
		used += j.Width
		running = append(running, Running{Job: j, Start: now - int64(r.Intn(int(j.Estimate)))})
	}
	for len(waiting) < queued {
		for ; len(waiting) < queued; next++ {
			set.Jobs[next].Submit = now - int64(r.Intn(3600))
			waiting = append(waiting, set.Jobs[next])
		}
		kept := waiting[:0]
		for _, e := range build(now, workload.CTC.Machine, running, waiting, policy.FCFS).Entries {
			if e.Start == now {
				running = append(running, Running{Job: e.Job, Start: now})
			} else {
				kept = append(kept, e.Job)
			}
		}
		waiting = kept
	}
	return now, running, waiting
}

// BenchmarkBuildSaturated measures candidate placement where simulations
// spend their time: long queues placed onto a profile whose head the
// running jobs and the first placements have already filled. One op is one
// candidate build from a shared base in policy order, into a schedule
// rebuilt in place — what the tuner does three times per event. ns/job is
// the cost per job placed; allocs/op must stay 0 (the witness table is on
// the placement loop's stack).
func BenchmarkBuildSaturated(b *testing.B) {
	for _, queued := range []int{128, 340} {
		now, running, waiting := ctcState(b, queued)
		var base Base
		base.Reset(now, workload.CTC.Machine, running)
		for _, p := range policy.Candidates {
			ordered := policy.Order(p, waiting)
			b.Run(fmt.Sprintf("queue%d/%s", queued, p), func(b *testing.B) {
				var s Schedule
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					base.BuildInto(&s, ordered, p)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ordered)), "ns/job")
			})
		}
	}
}

// BenchmarkPlannedSLDwA measures schedule scoring.
func BenchmarkPlannedSLDwA(b *testing.B) {
	r := rng.New(8)
	waiting := make([]*job.Job, 512)
	for i := range waiting {
		est := int64(1 + r.Intn(20000))
		waiting[i] = &job.Job{
			ID: job.ID(i + 1), Submit: int64(r.Intn(1000)),
			Width: 1 + r.Intn(128), Estimate: est, Runtime: est,
		}
	}
	s := build(1000, 128, nil, waiting, policy.SJF)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PlannedSLDwA()
	}
}
