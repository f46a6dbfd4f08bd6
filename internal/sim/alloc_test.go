package sim

import (
	"runtime"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/workload"
)

// allocScenario draws a queue of the given length plus one spare job to
// churn it with, and a machine with one running job.
func allocScenario(queued int) (waiting []*job.Job, spare *job.Job, running []plan.Running) {
	r := rng.New(uint64(queued))
	waiting = make([]*job.Job, queued+1)
	for i := range waiting {
		est := int64(1 + r.Intn(20000))
		waiting[i] = &job.Job{ID: job.ID(i + 1), Submit: int64(r.Intn(1000)),
			Width: 1 + r.Intn(64), Estimate: est, Runtime: est}
	}
	running = []plan.Running{{Job: &job.Job{ID: 9999, Width: 32, Estimate: 5000, Runtime: 5000}}}
	return waiting[:queued], waiting[queued], running
}

// TestStaticPlanAllocs is the allocation gate of the static lane: once
// the lane's storage has grown to the queue, a Plan call allocates
// nothing.
func TestStaticPlanAllocs(t *testing.T) {
	for _, queued := range []int{64, 256} {
		waiting, _, running := allocScenario(queued)
		s := &Static{Policy: policy.SJF}
		step := func() { s.Plan(1000, 128, running, waiting) }
		step()
		step()
		if avg := testing.AllocsPerRun(200, step); avg > 0 {
			t.Errorf("queue %d: Static.Plan allocates %.2f objects per call, want 0", queued, avg)
		}
	}
}

// TestTunerRebuildAllocs gates the self-tuner's planning step: the queue
// changes before every Plan, as it does between scheduling events. The
// base, the scratch profile and the schedules are the lane's, rebuilt in
// place, the deciders read their ties off the minimum in place, and the
// scores and the last decision live in the tuner's own storage, so a
// step allocates nothing.
func TestTunerRebuildAllocs(t *testing.T) {
	for _, queued := range []int{64, 256} {
		waiting, spare, running := allocScenario(queued)
		d := NewDynP(core.Advanced{})
		i := 0
		rebuild := func() {
			k := i % queued
			i++
			waiting[k], spare = spare, waiting[k]
			d.Plan(1000, 128, running, waiting)
		}
		rebuild()
		rebuild()
		if avg := testing.AllocsPerRun(200, rebuild); avg > 0 {
			t.Errorf("queue %d: a rebuilding Plan allocates %.2f objects, want 0", queued, avg)
		}
	}
}

// TestRunBytesPerJob gates the heap a whole simulation allocates per
// job: 1,000 LANL jobs under the SJF-preferred dynP. The engine's running
// set is the only record of a running job's start and end, submissions are
// read off the set in place, and a decision allocates nothing, so little
// more than the records is left. Measured at 68.5 bytes per job, 71.2
// under -race (go1.24.0); with the running jobs kept a second time in a
// completion heap it was 71.3, 73.9 under -race. With every submission
// pushed into that heap and a fresh score slice per decision it was
// 205–209; with per-job start and finished maps in the trajectory as
// well, 279–282.
func TestRunBytesPerJob(t *testing.T) {
	sets, err := workload.LANL.GenerateSets(1, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := sets[0]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(set, NewDynP(core.Preferred{Policy: policy.SJF})); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(set.Jobs))
	t.Logf("Run allocates %.1f bytes per job", perJob)
	if perJob > 100 {
		t.Errorf("Run allocates %.1f bytes per job, want at most 100", perJob)
	}
}
