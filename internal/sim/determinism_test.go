package sim

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/workload"
)

// traceFingerprint renders a decider trace exactly: every self-tuning
// decision's time, policy transition and candidate scores, the scores as
// hexadecimal float bits so two traces render identically iff every
// score is bit-identical.
func traceFingerprint(trace []core.Decision) string {
	var b strings.Builder
	for _, d := range trace {
		fmt.Fprintf(&b, "t=%d %v->%v", d.Time, d.Old, d.Chosen)
		for _, v := range d.Values {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDeterminismAcrossGOMAXPROCS is the regression gate for the
// invariant that parallelism is an implementation detail that never
// leaks into results. One contended workload is simulated at GOMAXPROCS
// 1, 2 and 8, alone and as a batch through RunParallel with GOMAXPROCS
// shards (sharing no planning storage: each driver owns its lane). The
// schedule fingerprint (every start and finish) and the full decider
// trace (every decision's bit-exact candidate scores) must be
// byte-identical across all three settings.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	sets, err := workload.KTH.GenerateSets(1, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := sets[0].Shrink(0.8)

	type outcome struct {
		schedule, trace string
	}
	run := func(procs int) outcome {
		runtime.GOMAXPROCS(procs)
		d := NewDynP(core.Advanced{})
		d.Tuner.EnableTrace()
		res, err := Run(set, d)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		return outcome{fingerprint(res), traceFingerprint(d.Tuner.Trace())}
	}

	want := run(1)
	if want.trace == "" {
		t.Fatal("decider trace is empty: the workload exercised no self-tuning steps")
	}
	for _, procs := range []int{2, 8} {
		got := run(procs)
		if got.schedule != want.schedule {
			t.Errorf("GOMAXPROCS=%d: schedule diverged from GOMAXPROCS=1:\n got: %s\nwant: %s",
				procs, got.schedule, want.schedule)
		}
		if got.trace != want.trace {
			t.Errorf("GOMAXPROCS=%d: decider trace diverged from GOMAXPROCS=1", procs)
		}
	}

	// The sharded batch path at the same settings: replicas of the set
	// through RunParallel must reproduce the sequential schedule exactly.
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		results, err := RunParallel([]*job.Set{set, set, set},
			func() Driver { return NewDynP(core.Advanced{}) }, procs)
		if err != nil {
			t.Fatalf("RunParallel procs=%d: %v", procs, err)
		}
		for i, res := range results {
			if got := fingerprint(res); got != want.schedule {
				t.Errorf("GOMAXPROCS=%d replica %d: parallel schedule diverged from sequential", procs, i)
			}
		}
	}
}
