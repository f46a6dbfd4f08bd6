package sim

import (
	"testing"

	"dynp/internal/core"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
)

// tunerLockstep returns plantest.Run's driver factory for a dynP driver:
// a fresh DynP per (re)start, every self-tuning step checked against one
// naive tuner that outlives the restarts.
func tunerLockstep(t testing.TB, newDecider func() core.Decider, m core.Metric, lanes *plantest.Lanes) func() Driver {
	ref := plantest.NewTuner(newDecider(), m)
	return func() Driver {
		d := NewDynPWith(nil, newDecider(), m)
		return plantest.TunerLockstep(t, d, d.Tuner, ref, lanes)
	}
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
// the tuner's lockstep driver, once per decider, and requires the views to
// have been synced with a queue in which withheld jobs rejoin out of
// order.
func TestTunerLockstep(t *testing.T) {
	for _, newDecider := range lockstepDeciders() {
		t.Run(newDecider().Name(), func(t *testing.T) {
			var lanes plantest.Lanes
			for seed := uint64(0); seed < 6; seed++ {
				plantest.Run(t, tunerLockstep(t, newDecider, core.MetricSLDwA, &lanes), plantest.Stream(seed))
			}
			if lanes.Rejoined == 0 {
				t.Error("no step was handed a job rejoining the queue out of order; the streams must reach it")
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
		plantest.Run(t, tunerLockstep(t, newDecider, m, new(plantest.Lanes)), data[1:])
	})
}
