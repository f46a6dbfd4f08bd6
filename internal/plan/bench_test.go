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
// reset, one build of every candidate policy's schedule, all kept across
// iterations the way core.Lane keeps them. "sorted" pays the full-sort
// fallback per candidate, "ordered" reads orders kept up to date
// elsewhere (policy.Views).
func BenchmarkCandidateSet(b *testing.B) {
	const capacity = 128
	for _, queued := range []int{64, 256, 1024} {
		running, waiting := randomState(5, capacity, 32, queued)
		viewed := make([][]*job.Job, len(policy.Candidates))
		for i, p := range policy.Candidates {
			viewed[i] = policy.Order(p, waiting)
		}
		for _, sorted := range []bool{true, false} {
			name := fmt.Sprintf("queue%d/ordered", queued)
			if sorted {
				name = fmt.Sprintf("queue%d/sorted", queued)
			}
			b.Run(name, func(b *testing.B) {
				var base Base
				slots := newSlots(len(policy.Candidates))
				orders := make([][]*job.Job, len(policy.Candidates))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					base.Reset(1000, capacity, running)
					for k, p := range policy.Candidates {
						orders[k] = viewed[k]
						if sorted {
							orders[k] = policy.Order(p, waiting)
						}
					}
					base.BuildInto(slots, orders, policy.Candidates)
					for _, s := range slots {
						s.PlannedSLDwA()
					}
				}
			})
		}
	}
}

// newSlots returns k empty schedules to build into.
func newSlots(k int) []*Schedule {
	slots := make([]*Schedule, k)
	for i := range slots {
		slots[i] = new(Schedule)
	}
	return slots
}

// ctcState draws a machine state shaped like the benchmark's sim-heavy
// workload (CTC at shrink 0.8) right after a scheduling event: 430
// processors, about 35 jobs from the CTC model running — the first ones
// some way into their estimates — and a queue in which nothing can start
// now, because everything that could was started (the planner's own
// backfilling, replayed here until it launches nothing more).
//
// A drained queue is what sim-heavy's deep queues hold: backfilling has
// let nearly every job shorter than the clamped maximum estimate overtake
// the ones at it, and those have waited longest. In sim-heavy's queues of
// 250 jobs or more 97% of the jobs sit at the maximum; here 88% do, all
// older than the rest, so FCFS and LJF order them alike.
func ctcState(tb testing.TB, queued int, drained bool) (now int64, running []Running, waiting []*job.Job) {
	n := 4 * queued
	if drained {
		n *= 4
	}
	set, err := workload.CTC.Generate(n, rng.New(2004))
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
			j := set.Jobs[next]
			long := j.Estimate == workload.CTC.EstMax
			if drained && !long && next%32 != 0 {
				continue
			}
			j.Submit = now - int64(r.Intn(3600))
			if drained && long {
				j.Submit -= 3600
			}
			waiting = append(waiting, j)
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
// running jobs and the first placements have already filled. In the
// per-policy rows one op is one candidate build from a shared base in
// policy order, into a schedule rebuilt in place. In the candidates rows
// one op is what the tuner does per event: all three orders in one call.
// On ctcState's queue the orders share no prefix, so that row prices
// the fork lookup; on the drained queue LJF resumes FCFS's
// build after the long jobs at the head of both. ns/job is the cost per
// job of an order (queue length × orders); allocs/op must stay 0 (the
// witness table is on the placement loop's stack, the fork storage grows
// once).
func BenchmarkBuildSaturated(b *testing.B) {
	for _, queued := range []int{128, 340} {
		for _, drained := range []bool{false, true} {
			now, running, waiting := ctcState(b, queued, drained)
			var base Base
			base.Reset(now, workload.CTC.Machine, running)
			orders := make([][]*job.Job, len(policy.Candidates))
			for k, p := range policy.Candidates {
				orders[k] = policy.Order(p, waiting)
			}
			bench := func(name string, ps []policy.Policy, orders [][]*job.Job) {
				b.Run(fmt.Sprintf("queue%d/%s", queued, name), func(b *testing.B) {
					slots := newSlots(len(ps))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						base.BuildInto(slots, orders, ps)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)*len(waiting)), "ns/job")
				})
			}
			if drained {
				bench("drained/candidates", policy.Candidates, orders)
				continue
			}
			for k, p := range policy.Candidates {
				bench(p.Name(), policy.Candidates[k:k+1], orders[k:k+1])
			}
			bench("candidates", policy.Candidates, orders)
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
