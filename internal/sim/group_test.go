package sim_test

import (
	"sort"
	"testing"

	"dynp/internal/core"
	"dynp/internal/experiment"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// schedulerSets are the scheduler sets the sweeps co-simulate — the
// paper's five, every ablation's (EASY and the metric variants among
// them) and the fairness study's — and one that puts an adaptive decider
// in a group with the paper's: its fairness policy is a paper candidate,
// and its depth and patience are small enough to flip within a run.
func schedulerSets(t testing.TB) map[string][]experiment.SchedulerSpec {
	sets := map[string][]experiment.SchedulerSpec{
		"paper":    experiment.PaperSchedulers(),
		"fairness": experiment.FairnessSchedulers(),
		"adaptive": {
			experiment.DynPSpec(core.Advanced{}),
			experiment.AdaptiveSpec(policy.SJF, 2, 2),
			experiment.DynPSpec(core.Preferred{Policy: policy.SJF}),
		},
	}
	for _, a := range experiment.Ablations() {
		specs, err := a.Schedulers()
		if err != nil {
			t.Fatal(err)
		}
		sets["ablation "+string(a)] = specs
	}
	return sets
}

// TestRunGroupMatchesSeparateRuns co-simulates every scheduler set the
// sweeps run over several models, loads and estimate scales, and holds
// each member, and each driver run alone, to the oracle's separate run of
// the same scheduler. The sets must split somewhere, or the test proves
// nothing about splitting.
func TestRunGroupMatchesSeparateRuns(t *testing.T) {
	if groups, err := sim.Groups(newDrivers(schedulerSets(t)["adaptive"])); err != nil || len(groups) != 1 {
		t.Fatalf("the adaptive set runs in groups %v (%v), want one", groups, err)
	}
	splits := 0
	for name, specs := range schedulerSets(t) {
		t.Run(name, func(t *testing.T) {
			for _, m := range []workload.Model{workload.KTH, workload.CTC, workload.SDSC} {
				sets, err := m.GenerateSets(2, 250, 11)
				if err != nil {
					t.Fatal(err)
				}
				for k, s := range sets {
					for _, shrink := range []float64{1.0, 0.7} {
						set := s.Shrink(shrink)
						if k == 1 {
							if set, err = workload.ScaleEstimates(set, 2); err != nil {
								t.Fatal(err)
							}
						}
						splits += checkGroup(t, set, specs)
					}
				}
			}
		})
	}
	if splits == 0 {
		t.Fatal("no co-simulated member ever left its group's first member's trajectory")
	}
}

// TestRunGroupSplitsOnTiedCompletions: two jobs start together and end
// together. All three candidate schedules tie, so the advanced decider
// keeps FCFS (job 2 before job 3) while the SJF-preferred decider takes
// SJF (job 3 first, by its shorter estimate). The launches hold the same
// jobs in another order, and the equal run times make that order the
// order of their completions, so the members must part there. Had the
// two jobs' run times differed, the order would reach nothing and the
// members could share the trajectory.
func TestRunGroupSplitsOnTiedCompletions(t *testing.T) {
	set := &job.Set{Name: "tied", Machine: 10, Jobs: []*job.Job{
		{ID: 1, Submit: 0, Width: 10, Estimate: 100, Runtime: 100},
		{ID: 2, Submit: 1, Width: 5, Estimate: 200, Runtime: 50},
		{ID: 3, Submit: 1, Width: 5, Estimate: 60, Runtime: 50},
	}}
	specs := experiment.PaperSchedulers()[3:]
	if differ := checkGroup(t, set, specs); differ != 1 {
		t.Fatalf("%d members' records differ from the first's, want the SJF-preferred one", differ)
	}
	set.Jobs[2].Runtime = 49
	checkGroup(t, set, specs)
}

// TestRunGroupRejectsRepeatedDriver: a driver passed twice would start
// its second run from the state its first one left — one tuner cannot
// decide twice per event either — so RunGroup refuses it, whether the
// driver shares a group or runs on its own.
func TestRunGroupRejectsRepeatedDriver(t *testing.T) {
	sets, err := workload.KTH.GenerateSets(1, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []experiment.SchedulerSpec{
		experiment.PaperSchedulers()[3],
		experiment.AdaptiveSpec(policy.MustFairSize(0.5, 2), 8, 3),
		experiment.StaticSpec(policy.SJF),
		experiment.EASYSpec(policy.FCFS),
	} {
		d, other := spec.New(), experiment.PaperSchedulers()[4].New()
		if _, err := sim.RunGroup(sets[0], []sim.Driver{d, other, d}); err == nil {
			t.Errorf("RunGroup accepted %s twice", spec.Name)
		}
	}
}

// FuzzRunGroup draws a small job set and any subset of the sweeps'
// schedulers — repeats included — and holds RunGroup and Run to the
// oracle's separate runs.
func FuzzRunGroup(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint32(0xffffffff))
	f.Add(uint64(7), uint8(1), uint8(90), uint32(0x18))
	f.Add(uint64(3), uint8(6), uint8(200), uint32(0x5a5a5))
	sets := schedulerSets(f)
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	var pool []experiment.SchedulerSpec
	for _, name := range names {
		pool = append(pool, sets[name]...)
	}
	f.Fuzz(func(t *testing.T, seed uint64, load uint8, jobs uint8, mask uint32) {
		var specs []experiment.SchedulerSpec
		for i, spec := range pool {
			if mask>>(i%32)&1 == 1 && len(specs) < 8 {
				specs = append(specs, spec)
			}
		}
		if len(specs) == 0 {
			return
		}
		models := workload.Models()
		sets, err := models[int(load)%len(models)].GenerateSets(1, 10+int(jobs)%120, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkGroup(t, sets[0].Shrink(0.5+float64(load/4%6)*0.1), specs)
	})
}
