package core

import (
	"fmt"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/workload"
)

// BenchmarkDeciders measures the pure decision step (negligible next to
// schedule construction, quantified here to prove it).
func BenchmarkDeciders(b *testing.B) {
	values := []float64{3.2, 2.9, 4.1}
	for _, d := range []Decider{Simple{}, Advanced{}, Preferred{Policy: policy.SJF}} {
		b.Run(d.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.Decide(policy.SJF, policy.Candidates, values)
			}
		})
	}
}

// BenchmarkSelfTunerPlan measures one full self-tuning step across
// waiting-queue depths and candidate-set sizes on the full-sort lane (no
// queue notifications, so every candidate sorts the queue itself).
// Running jobs are present so the shared base profile carries real
// reservations. The ctc rows plan a queue shaped like sim-heavy's, whose
// FCFS and LJF orders share a head.
func BenchmarkSelfTunerPlan(b *testing.B) {
	for _, queued := range []int{128, 340} {
		b.Run(fmt.Sprintf("ctc/queue%d/cand3", queued), func(b *testing.B) {
			now, running, waiting := ctcQueue(b, queued)
			st := NewSelfTuner(policy.Candidates, Advanced{}, MetricSLDwA)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Plan(now, workload.CTC.Machine, running, waiting)
			}
		})
	}
	const capacity = 128
	candidateSets := []struct {
		name string
		set  []policy.Policy
	}{
		{"cand3", policy.Candidates},
		{"cand5", policy.All},
	}
	for _, queued := range []int{64, 256, 1024} {
		for _, cs := range candidateSets {
			b.Run(fmt.Sprintf("queue%d/%s", queued, cs.name), func(b *testing.B) {
				r := rng.New(5)
				running := make([]plan.Running, 32)
				for i := range running {
					running[i] = plan.Running{
						Job: &job.Job{
							ID: job.ID(i + 1), Submit: 0,
							Width: 1 + r.Intn(4), Estimate: int64(1000 + r.Intn(20000)),
						},
						Start: 0,
					}
				}
				waiting := make([]*job.Job, queued)
				for i := range waiting {
					est := int64(1 + r.Intn(20000))
					waiting[i] = &job.Job{
						ID: job.ID(100 + i), Submit: int64(r.Intn(1000)),
						Width: 1 + r.Intn(capacity), Estimate: est, Runtime: est,
					}
				}
				st := NewSelfTuner(cs.set, Advanced{}, MetricSLDwA)
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.Plan(1000, capacity, running, waiting)
				}
			})
		}
	}
}

// ctcQueue draws jobs from the CTC model (430 processors, estimates
// clamped at 64,800 s): running jobs filling three quarters of the machine
// some way into their estimates, and a queue of the given length drained
// the way sim-heavy's deep queues are. Backfilling has let nearly every
// shorter job overtake the ones at the maximum estimate, so those make up
// most of the queue and have waited longest: FCFS and LJF order them
// alike.
func ctcQueue(tb testing.TB, queued int) (now int64, running []plan.Running, waiting []*job.Job) {
	set, err := workload.CTC.Generate(16*queued, rng.New(2004))
	if err != nil {
		tb.Fatal(err)
	}
	now = 1 << 20
	r := rng.New(12)
	jobs, used := set.Jobs, 0
	for ; used+jobs[0].Width <= workload.CTC.Machine*3/4; jobs = jobs[1:] {
		used += jobs[0].Width
		running = append(running, plan.Running{Job: jobs[0], Start: now - int64(r.Intn(int(jobs[0].Estimate)))})
	}
	for i, j := range jobs {
		if len(waiting) == queued {
			break
		}
		long := j.Estimate == workload.CTC.EstMax
		if !long && i%32 != 0 {
			continue
		}
		j.Submit = now - int64(r.Intn(3600))
		if long {
			j.Submit -= 3600
		}
		waiting = append(waiting, j)
	}
	return now, running, waiting
}

// BenchmarkSelfTunerPlanIncremental measures the steady-state cost of
// one scheduling event: every iteration drops one job from anywhere in
// the queue and appends its replacement, as the scheduling engine does
// between two events, so each Plan splices one job out of the order
// views and one in.
func BenchmarkSelfTunerPlanIncremental(b *testing.B) {
	const capacity = 128
	for _, queued := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("queue%d", queued), func(b *testing.B) {
			r := rng.New(5)
			running := make([]plan.Running, 32)
			for i := range running {
				running[i] = plan.Running{
					Job: &job.Job{
						ID: job.ID(i + 1), Submit: 0,
						Width: 1 + r.Intn(4), Estimate: int64(1000 + r.Intn(20000)),
					},
					Start: 0,
				}
			}
			waiting := make([]*job.Job, queued)
			st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
			nextID := job.ID(100)
			for i := range waiting {
				est := int64(1 + r.Intn(20000))
				waiting[i] = &job.Job{
					ID: nextID, Submit: int64(r.Intn(1000)),
					Width: 1 + r.Intn(capacity), Estimate: est, Runtime: est,
				}
				nextID++
			}
			st.Plan(1000, capacity, running, waiting)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := r.Intn(queued)
				waiting = append(waiting[:k], waiting[k+1:]...)
				est := int64(1 + r.Intn(20000))
				waiting = append(waiting, &job.Job{
					ID: nextID, Submit: int64(r.Intn(1000)),
					Width: 1 + r.Intn(capacity), Estimate: est, Runtime: est,
				})
				nextID++
				st.Plan(1000, capacity, running, waiting)
			}
		})
	}
}

// BenchmarkSelfTuningStep measures one full self-tuning step (three
// what-if schedules plus decision) at several queue depths.
func BenchmarkSelfTuningStep(b *testing.B) {
	for _, queued := range []int{16, 128, 512} {
		b.Run(map[int]string{16: "queue16", 128: "queue128", 512: "queue512"}[queued], func(b *testing.B) {
			r := rng.New(5)
			waiting := make([]*job.Job, queued)
			for i := range waiting {
				est := int64(1 + r.Intn(20000))
				waiting[i] = &job.Job{
					ID: job.ID(i + 1), Submit: int64(r.Intn(1000)),
					Width: 1 + r.Intn(128), Estimate: est, Runtime: est,
				}
			}
			st := NewSelfTuner(nil, Advanced{}, MetricSLDwA)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Plan(1000, 128, nil, waiting)
			}
		})
	}
}
