package sim

import (
	"slices"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// lockstepDynP is a DynP driver that checks every self-tuning step
// against the step done the slow obvious way: every candidate rebuilt
// with referencePlan, scored by walking its entries, and decided by a
// second instance of the decider from the policy that was active. The
// candidate scores, the chosen policy and the chosen schedule must all
// be identical. It mirrors the queue notifications into views of its own
// to know which lane the tuner planned on.
type lockstepDynP struct {
	*DynP
	t       testing.TB
	metric  core.Metric
	decider core.Decider // the reference's own instance
	mirror  *policy.Views
	lanes   *laneCount
}

func newLockstepDynP(t testing.TB, newDecider func() core.Decider, m core.Metric, lanes *laneCount) *lockstepDynP {
	return &lockstepDynP{DynP: NewDynPWith(nil, newDecider(), m), t: t,
		metric: m, decider: newDecider(), mirror: policy.NewViews(policy.FCFS), lanes: lanes}
}

func (d *lockstepDynP) NoteSubmit(j *job.Job) { d.mirror.Insert(j); d.DynP.NoteSubmit(j) }
func (d *lockstepDynP) NoteRemove(j *job.Job) { d.mirror.Remove(j); d.DynP.NoteRemove(j) }

func (d *lockstepDynP) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	d.lanes.note(d.mirror.Covering(waiting) != nil)
	active, candidates := d.Tuner.Active(), d.Tuner.Candidates()
	got := d.DynP.Plan(now, capacity, running, waiting)

	refs := make([]*plan.Schedule, len(candidates))
	values := make([]float64, len(candidates))
	for i, p := range candidates {
		refs[i] = referencePlan(now, capacity, running, waiting, p)
		values[i] = d.metric.Score(refs[i])
	}
	chosen := d.decider.Decide(active, candidates, values)
	want := refs[slices.Index(candidates, chosen)]

	dec, _ := d.Tuner.LastDecision()
	if dec.Time != now || dec.Old != active || !slices.Equal(dec.Values, values) {
		d.t.Fatalf("%s at t=%d from %v (%d running, %d waiting): decided at t=%d from %v on %v, want %v",
			d.Name(), now, active, len(running), len(waiting), dec.Time, dec.Old, dec.Values, values)
	}
	if dec.Chosen != chosen || got.Policy != chosen || d.Tuner.Active() != chosen {
		d.t.Fatalf("%s at t=%d from %v on %v: chose %v (schedule %v, active %v), want %v",
			d.Name(), now, active, values, dec.Chosen, got.Policy, d.Tuner.Active(), chosen)
	}
	if got.Now != want.Now || got.Capacity != want.Capacity || !slices.Equal(got.Entries, want.Entries) {
		d.t.Fatalf("%s at t=%d under %v (%d running, %d waiting):\n got %v\nwant %v",
			d.Name(), now, chosen, len(running), len(waiting), got.Entries, want.Entries)
	}
	return got
}

// lockstepDeciders are the paper's three decider mechanisms.
func lockstepDeciders() []func() core.Decider {
	return []func() core.Decider{
		func() core.Decider { return core.Simple{} },
		func() core.Decider { return core.Advanced{} },
		func() core.Decider { return core.Preferred{Policy: policy.SJF} },
	}
}

var lockstepMetrics = []core.Metric{core.MetricSLDwA, core.MetricART, core.MetricARTwW, core.MetricAWT, core.MetricMakespan}

// TestTunerLockstep runs the seeded streams of TestStaticLockstep through
// the tuner's lockstep driver, once per decider, and requires both lanes
// — spliced views and full-sort fallback — to have actually planned.
func TestTunerLockstep(t *testing.T) {
	for _, newDecider := range lockstepDeciders() {
		t.Run(newDecider().Name(), func(t *testing.T) {
			var lanes laneCount
			for seed := uint64(0); seed < 6; seed++ {
				runLockstep(t, func() Driver { return newLockstepDynP(t, newDecider, core.MetricSLDwA, &lanes) }, lockstepStream(seed))
			}
			if lanes.view == 0 || lanes.sort == 0 {
				t.Errorf("%d steps read the views, %d sorted in full; the streams must reach both", lanes.view, lanes.sort)
			}
		})
	}
}

// FuzzTunerLockstep hands the event stream to the fuzzer; the first byte
// picks the decider and the decision metric.
func FuzzTunerLockstep(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 17, 2, 9, 3, 2, 4, 0})
	f.Add([]byte{1, 0, 4, 0, 4, 0, 4, 6, 6, 0, 1, 3, 200, 6, 1, 7, 0, 3, 9})
	f.Add([]byte{2, 0, 9, 1, 9, 5, 200, 5, 3, 7, 0, 0, 14, 4, 0, 3, 255})
	f.Add([]byte{14, 2, 24, 2, 24, 2, 23, 6, 30, 0, 4, 6, 31, 3, 100, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 801 {
			data = data[:801]
		}
		ds := lockstepDeciders()
		newDecider := ds[int(data[0])%len(ds)]
		m := lockstepMetrics[int(data[0])/len(ds)%len(lockstepMetrics)]
		runLockstep(t, func() Driver { return newLockstepDynP(t, newDecider, m, new(laneCount)) }, data[1:])
	})
}
