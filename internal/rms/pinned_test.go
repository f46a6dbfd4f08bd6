package rms

import (
	"hash/fnv"
	"testing"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
)

// TestDaemonStreamsPinned pins what a daemon answers and what it writes to
// disk, per driver, over the seeded plantest streams run by the stream
// interpreter: an FNV-64a hash of every response the streams get — to
// each request, to the Status and Job reads that check it, to three
// quotes (widths 1, 4 and 16) and a Report after every op, and to the
// finished list at the end — and a hash of the name and bytes of every
// journal segment. A refactor of how the scheduler captures its state
// must leave both unchanged. The interpreter also holds every driver to
// the naive daemon, and restarts and replays each journal from genesis.
func TestDaemonStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		decider        func() core.Decider // nil for a static SJF driver
		reads, journal uint64
	}{
		{"static SJF", nil, 0x6513f4aa5c2c391f, 0xcaa764982f864c96},
		{"simple", func() core.Decider { return core.Simple{} }, 0x4d715c5ae0d73f2f, 0xf040b81f0ccb1d7a},
		{"advanced", func() core.Decider { return core.Advanced{} }, 0x457e494c468857e2, 0xe1c3e6065839b99e},
		{"SJF-preferred", func() core.Decider { return core.Preferred{Policy: policy.SJF} }, 0xa33763ef68c05419, 0x15e25194503f58f},
		{"adaptive", func() core.Decider { return adaptive.Must(policy.SJF, 4, 2) }, 0xc3f3ba7739c194c9, 0x45a60d52ab7d2a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var ds daemonStream
			if tc.decider == nil {
				ds = staticStream(t, plantest.Capacity, policy.SJF)
			} else {
				ds = tunerStream(t, plantest.Capacity, tc.decider)
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
