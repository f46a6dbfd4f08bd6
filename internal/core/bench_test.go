package core

import (
	"fmt"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/rng"
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
// reservations.
func BenchmarkSelfTunerPlan(b *testing.B) {
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

// BenchmarkSelfTunerPlanIncremental measures the in-place +
// incremental-view planning path: every iteration removes one job and
// submits a replacement through the NoteSubmit/NoteRemove interface, as
// the scheduling engine does, so each Plan reads spliced views — the
// steady-state cost of one scheduling event.
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
				st.NoteSubmit(waiting[i])
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				old := waiting[i%queued]
				st.NoteRemove(old)
				est := int64(1 + r.Intn(20000))
				repl := &job.Job{
					ID: nextID, Submit: int64(r.Intn(1000)),
					Width: 1 + r.Intn(capacity), Estimate: est, Runtime: est,
				}
				nextID++
				waiting[i%queued] = repl
				st.NoteSubmit(repl)
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
