package sim_test

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/experiment"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// oracleStep returns the naive step a spec's driver is held to: a fresh
// driver's policy, EASY base, or tuner — candidates, a second instance of
// its decider, and the decision metric its name ends in (the paper's
// planned SLDwA when it names none).
func oracleStep(t testing.TB, spec experiment.SchedulerSpec) plantest.Step {
	switch d := spec.New().(type) {
	case *sim.Static:
		return plantest.Fixed{Policy: d.Policy}
	case *sim.EASY:
		return plantest.EASY{Base: d.Base}
	case *sim.DynP:
		name := d.Name()
		m, err := core.ParseMetric(name[strings.LastIndex(name, "/")+1:])
		if err != nil {
			m = core.MetricSLDwA
		}
		cands := d.Tuner.Candidates()
		return &plantest.Tuner{Candidates: cands, Decider: d.Tuner.Decider(), Metric: m, Active: cands[0]}
	}
	t.Fatalf("%s: no naive step for its driver", spec.Name)
	return nil
}

// checkRun holds one run of driver d to the oracle's run want, made with
// step: records, scheduling events, makespan, the time each policy was
// active, a traced tuner's every decision (when d is not nil) and, when
// transitions is not nil, every transition.
func checkRun(t *testing.T, name string, got *sim.Result, d sim.Driver, transitions []plantest.Transition,
	want *plantest.Result, step plantest.Step) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, the oracle %d", name, len(got.Records), len(want.Records))
	}
	for i, w := range want.Records {
		if g := got.Records[i]; g.Job != w.Job || g.Start != w.Start || g.Finish != w.Finish || w.State != engine.FinishCompleted {
			t.Fatalf("%s: record %d is %s over [%d, %d], the oracle's %s over [%d, %d] (%v)",
				name, i, g.Job, g.Start, g.Finish, w.Job, w.Start, w.Finish, w.State)
		}
	}
	if got.Events != want.Events || got.Makespan != want.Makespan || !maps.Equal(got.PolicyTime, want.PolicyTime) {
		t.Fatalf("%s: %d events to makespan %d with policy time %v, the oracle %d to %d with %v",
			name, got.Events, got.Makespan, got.PolicyTime, want.Events, want.Makespan, want.PolicyTime)
	}
	if tuner, ok := step.(*plantest.Tuner); ok && d != nil {
		if trace := d.(*sim.DynP).Tuner.Trace(); !reflect.DeepEqual(trace, tuner.Trace) {
			t.Fatalf("%s: the tuner's %d decisions differ from the oracle's %d", name, len(trace), len(tuner.Trace))
		}
	}
	if transitions != nil {
		if err := plantest.SameTransitions(transitions, want.Transitions); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// newDrivers returns a fresh driver per spec, tracing every tuner's
// decisions.
func newDrivers(specs []experiment.SchedulerSpec) []sim.Driver {
	drivers := make([]sim.Driver, len(specs))
	for i, spec := range specs {
		drivers[i] = spec.New()
		if d, ok := drivers[i].(*sim.DynP); ok {
			d.Tuner.EnableTrace()
		}
	}
	return drivers
}

// checkGroup runs the specs once through RunGroup and once each through
// Run, observed, and holds every result to the oracle's separate run of
// the same scheduler. It reports how many members' records differ from
// the first member's: a group whose members all agree never had to split.
func checkGroup(t *testing.T, set *job.Set, specs []experiment.SchedulerSpec) (differ int) {
	t.Helper()
	grouped, alone := newDrivers(specs), newDrivers(specs)
	results, err := sim.RunGroup(set, grouped)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		step := oracleStep(t, spec)
		want := plantest.Simulate(set, step)
		checkRun(t, spec.Name+" in a group", results[i], grouped[i], nil, want, step)
		var rec plantest.Recorder
		res, err := sim.Run(set, alone[i], sim.WithObserver(&rec))
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, spec.Name, res, alone[i], rec.Transitions, want, step)
		if !reflect.DeepEqual(results[i].Records, results[0].Records) {
			differ++
		}
	}
	return differ
}

// kthSets returns n generated KTH sets of the given size, shrunk to 0.8.
func kthSets(t *testing.T, n, jobs int, seed uint64) []*job.Set {
	sets, err := workload.KTH.GenerateSets(n, jobs, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sets {
		sets[i] = s.Shrink(0.8)
	}
	return sets
}

// TestRunParallelMatchesOracle holds every slot of RunParallel, at
// several worker counts, to the oracle's run of that set: the paper's
// static policies and a stateful dynP driver. Each driver's lane owns its
// planning storage, so under -race this also checks that the concurrent
// simulations share nothing.
func TestRunParallelMatchesOracle(t *testing.T) {
	sets := kthSets(t, 6, 150, 7)
	for _, spec := range append(experiment.PaperSchedulers()[:3], experiment.DynPSpec(core.Advanced{})) {
		want := make([]*plantest.Result, len(sets))
		for i, s := range sets {
			want[i] = plantest.Simulate(s, oracleStep(t, spec))
		}
		for _, workers := range []int{1, 2, 8} {
			results, err := sim.RunParallel(sets, spec.New, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				checkRun(t, spec.Name, res, nil, nil, want[i], nil)
			}
		}
	}
}

// TestRunParallelReplicas runs the same set several times concurrently:
// every replica must equal the oracle's run, so fresh drivers share no
// state.
func TestRunParallelReplicas(t *testing.T) {
	set := kthSets(t, 1, 150, 7)[0]
	spec := experiment.DynPSpec(core.Preferred{Policy: policy.SJF})
	want := plantest.Simulate(set, oracleStep(t, spec))
	results, err := sim.RunParallel([]*job.Set{set, set, set, set}, spec.New, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		checkRun(t, fmt.Sprintf("replica %d", i), res, nil, nil, want, nil)
	}
}

// TestRunParallelError checks that an invalid set fails the batch with
// the smallest failing index's error and no partial results.
func TestRunParallelError(t *testing.T) {
	sets := append(kthSets(t, 2, 150, 7), &job.Set{Machine: 0})
	results, err := sim.RunParallel(sets, func() sim.Driver { return &sim.Static{Policy: policy.FCFS} }, 2)
	if err == nil {
		t.Fatal("invalid set produced no error")
	}
	if results != nil {
		t.Fatal("failed batch returned partial results")
	}
}

// TestDeterminismAcrossGOMAXPROCS is the regression gate for the
// invariant that parallelism is an implementation detail that never
// leaks into results. One contended workload is simulated at GOMAXPROCS
// 1, 2 and 8, alone and as a batch through RunParallel with GOMAXPROCS
// shards (sharing no planning storage: each driver owns its lane), and
// every run must equal the oracle's, which runs on one goroutine: every
// start and finish, and the decider's every decision, its candidate
// scores bit for bit.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	set := kthSets(t, 1, 300, 3)[0]
	spec := experiment.DynPSpec(core.Advanced{})
	step := oracleStep(t, spec)
	want := plantest.Simulate(set, step)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		d := newDrivers([]experiment.SchedulerSpec{spec})[0]
		res, err := sim.Run(set, d)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, fmt.Sprintf("GOMAXPROCS=%d", procs), res, d, nil, want, step)
		results, err := sim.RunParallel([]*job.Set{set, set, set}, spec.New, procs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			checkRun(t, fmt.Sprintf("GOMAXPROCS=%d replica %d", procs, i), res, nil, nil, want, nil)
		}
	}
}
