// Benchmarks regenerating every table and figure of the paper, plus the
// ablation studies listed in DESIGN.md. Each Benchmark<Exp> exercises the
// full pipeline behind the corresponding experiment at a reduced scale
// (cmd/paper runs the paper's scale); the reported ns/op is the cost of
// regenerating that artifact once.
package dynp_test

import (
	"io"
	"testing"

	"dynp"
)

// benchSweep runs the sweep behind a figure/table at benchmark scale.
func benchSweep(b *testing.B, models []dynp.Model, schedulers []dynp.SchedulerSpec) []*dynp.ExperimentResult {
	b.Helper()
	cfg := dynp.ExperimentConfig{
		Shrinks:    []float64{1.0, 0.8},
		Sets:       2,
		JobsPerSet: 500,
		Seed:       2004,
		Schedulers: schedulers,
	}
	results, err := dynp.RunExperiments(models, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

var benchShrinks = []float64{1.0, 0.8}

func basicSpecs() []dynp.SchedulerSpec {
	return []dynp.SchedulerSpec{
		dynp.StaticSpec(dynp.FCFS),
		dynp.StaticSpec(dynp.SJF),
		dynp.StaticSpec(dynp.LJF),
	}
}

func dynpSpecs() []dynp.SchedulerSpec {
	return []dynp.SchedulerSpec{
		dynp.StaticSpec(dynp.SJF),
		dynp.DynPSpec(dynp.AdvancedDecider()),
		dynp.DynPSpec(dynp.PreferredDecider(dynp.SJF)),
	}
}

// BenchmarkTable1DeciderAnalysis regenerates Table 1 (pure decision
// logic, no simulation).
func BenchmarkTable1DeciderAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := dynp.PaperTable1().Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2WorkloadGeneration regenerates Table 2: one job set per
// trace plus its characterisation.
func BenchmarkTable2WorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := dynp.PaperTable2(dynp.Models(), 1000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1BasicPoliciesSLDwA regenerates Figure 1 (and the SLDwA
// half of Table 4): the basic policies' slowdown curves over all traces.
func BenchmarkFigure1BasicPoliciesSLDwA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, dynp.Models(), basicSpecs())
		figs, err := dynp.PaperFigure(results, 1, benchShrinks)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range figs {
			if err := f.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure2BasicPoliciesUtilization regenerates Figure 2 (and the
// utilization half of Table 4).
func BenchmarkFigure2BasicPoliciesUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, dynp.Models(), basicSpecs())
		figs, err := dynp.PaperFigure(results, 2, benchShrinks)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range figs {
			if err := f.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable4BasicPolicies regenerates Table 4 from a basic-policy
// sweep.
func BenchmarkTable4BasicPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, dynp.Models(), basicSpecs())
		if err := dynp.PaperTable4(results, benchShrinks).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3DynPSLDwA regenerates Figure 3 (and the SLDwA part of
// Table 5): SJF vs dynP with the advanced and SJF-preferred deciders.
func BenchmarkFigure3DynPSLDwA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, dynp.Models(), dynpSpecs())
		figs, err := dynp.PaperFigure(results, 3, benchShrinks)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range figs {
			if err := f.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure4DynPUtilization regenerates Figure 4 (and the
// utilization part of Table 5).
func BenchmarkFigure4DynPUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, dynp.Models(), dynpSpecs())
		figs, err := dynp.PaperFigure(results, 4, benchShrinks)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range figs {
			if err := f.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable5DynPDetail regenerates Table 5.
func BenchmarkTable5DynPDetail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, dynp.Models(), dynpSpecs())
		if err := dynp.PaperTable5(results, benchShrinks).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3CondensedDifferences regenerates Table 3 (the condensed
// averages of Table 5).
func BenchmarkTable3CondensedDifferences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, dynp.Models(), dynpSpecs())
		if err := dynp.PaperTable3(results, benchShrinks).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md section 5) ---

// BenchmarkAblationDecisionMetric compares self-tuning decision metrics:
// the paper's planned SLDwA against planned average response time.
func BenchmarkAblationDecisionMetric(b *testing.B) {
	set, err := dynp.KTH.Generate(1500, dynp.NewStream(11))
	if err != nil {
		b.Fatal(err)
	}
	set = set.Shrink(0.8)
	for _, m := range []struct {
		name   string
		metric dynp.DecisionMetric
	}{
		{"SLDwA", dynp.MetricSLDwA},
		{"ART", dynp.MetricART},
		{"ARTwW", dynp.MetricARTwW},
		{"makespan", dynp.MetricMakespan},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := dynp.NewDynPSchedulerWith(nil, dynp.AdvancedDecider(), m.metric)
				res, err := dynp.Simulate(set, s)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(dynp.SLDwA(res), "SLDwA")
				b.ReportMetric(100*dynp.Utilization(res), "util%")
			}
		})
	}
}

// BenchmarkAblationPreferredPolicy compares preferring each of the three
// candidate policies (the paper evaluates only SJF-preferred).
func BenchmarkAblationPreferredPolicy(b *testing.B) {
	set, err := dynp.CTC.Generate(1500, dynp.NewStream(12))
	if err != nil {
		b.Fatal(err)
	}
	set = set.Shrink(0.8)
	for _, p := range []dynp.Policy{dynp.FCFS, dynp.SJF, dynp.LJF} {
		b.Run(p.Name()+"-preferred", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dynp.Simulate(set, dynp.NewDynPScheduler(dynp.PreferredDecider(p)))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(dynp.SLDwA(res), "SLDwA")
				b.ReportMetric(100*dynp.Utilization(res), "util%")
			}
		})
	}
}

// BenchmarkAblationSimpleDecider quantifies the end-to-end cost of the
// simple decider's wrong decisions (Table 1) against the advanced decider.
func BenchmarkAblationSimpleDecider(b *testing.B) {
	set, err := dynp.SDSC.Generate(1500, dynp.NewStream(13))
	if err != nil {
		b.Fatal(err)
	}
	set = set.Shrink(0.8)
	for _, d := range []dynp.Decider{dynp.SimpleDecider(), dynp.AdvancedDecider()} {
		b.Run(d.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dynp.Simulate(set, dynp.NewDynPScheduler(d))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(dynp.SLDwA(res), "SLDwA")
			}
		})
	}
}

// BenchmarkAblationCandidateSet extends the candidate policies with the
// area-ordered extensions (a future-work direction of the dynP papers).
func BenchmarkAblationCandidateSet(b *testing.B) {
	set, err := dynp.KTH.Generate(1500, dynp.NewStream(14))
	if err != nil {
		b.Fatal(err)
	}
	set = set.Shrink(0.8)
	sets := map[string][]dynp.Policy{
		"paper":      nil, // FCFS, SJF, LJF
		"with-areas": {dynp.FCFS, dynp.SJF, dynp.LJF, dynp.SAF, dynp.LAF},
	}
	for name, candidates := range sets {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := dynp.NewDynPSchedulerWith(candidates, dynp.AdvancedDecider(), dynp.MetricSLDwA)
				res, err := dynp.Simulate(set, s)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(dynp.SLDwA(res), "SLDwA")
			}
		})
	}
}

// BenchmarkSimulateStatic measures raw simulator throughput with a static
// policy (jobs/op scale: 2000).
func BenchmarkSimulateStatic(b *testing.B) {
	set, err := dynp.CTC.Generate(2000, dynp.NewStream(15))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynp.Simulate(set, dynp.NewStaticScheduler(dynp.FCFS)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateDynP measures the self-tuning overhead: three what-if
// schedules per event instead of one.
func BenchmarkSimulateDynP(b *testing.B) {
	set, err := dynp.CTC.Generate(2000, dynp.NewStream(15))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynp.Simulate(set, dynp.NewDynPScheduler(dynp.PreferredDecider(dynp.SJF))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures job set synthesis throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, m := range dynp.Models() {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Generate(1000, dynp.NewStream(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
