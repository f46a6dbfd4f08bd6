package rms

import (
	"hash/fnv"
	"testing"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// TestDaemonStreamsPinned pins what a daemon answers and what it writes to
// disk, per driver, over the seeded plantest streams run by the stream
// interpreter: an FNV-64a hash of every response the streams get — to
// each request, to the Status and Job reads that check it, to three
// quotes (widths 1, 4 and 16) and a Report after every op, and to the
// finished list at the end — and a hash of the name and bytes of every
// journal segment. A refactor of how the scheduler captures its state
// must leave both unchanged. The interpreter also holds every driver but
// adaptive, which the naive daemon lacks, to the naive daemon, and
// restarts and replays each journal from genesis.
func TestDaemonStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		decider        func() core.Decider // nil for a static SJF driver
		reads, journal uint64
	}{
		{"static SJF", nil, 0x6513f4aa5c2c391f, 0x23360d6d5615c91c},
		{"simple", func() core.Decider { return core.Simple{} }, 0x4d715c5ae0d73f2f, 0x5d28cc3cf01321d7},
		{"advanced", func() core.Decider { return core.Advanced{} }, 0x457e494c468857e2, 0x2294a65e5cbef8a0},
		{"SJF-preferred", func() core.Decider { return core.Preferred{Policy: policy.SJF} }, 0xa33763ef68c05419, 0xee93f865144df205},
		{"adaptive", func() core.Decider { return adaptive.Must(policy.SJF, 4, 2) }, 0x9e8adad01696b5e, 0x3406441ef0c391e2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var lanes plantest.Lanes
			var ds daemonStream
			if tc.decider == nil {
				ds = staticStream(t, plantest.Capacity, policy.SJF, &lanes)
			} else if _, observes := tc.decider().(engine.Observer); observes {
				// Its state grows from what it observes, which a naive
				// tuner has no copy of.
				ds = daemonStream{capacity: plantest.Capacity, lanes: &lanes,
					newDriver: func() (sim.Driver, *sim.DynP, *plantest.Tuner) { return sim.NewDynP(tc.decider()), nil, nil }}
			} else {
				ds = tunerStream(t, plantest.Capacity, tc.decider, &lanes)
			}
			reads, journal := fnv.New64a(), fnv.New64a()
			ds.reads, ds.journal = reads, journal
			for seed := uint64(0); seed < 3; seed++ {
				runDeliverLockstep(t, ds, decodeStream(plantest.Stream(seed)))
			}
			if got := reads.Sum64(); got != tc.reads {
				t.Errorf("answers hash to %#x, pinned %#x", got, tc.reads)
			}
			if got := journal.Sum64(); got != tc.journal {
				t.Errorf("journal segments hash to %#x, pinned %#x", got, tc.journal)
			}
		})
	}
}
