package experiment

import (
	"strings"
	"testing"

	"dynp/internal/adaptive"
	"dynp/internal/core"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

func TestFairnessSweep(t *testing.T) {
	robust := policy.MustFairSize(0.5, 2)
	cfg := Config{
		Model:      workload.KTH,
		Sets:       3,
		JobsPerSet: 250,
		Seed:       7,
		Schedulers: []SchedulerSpec{
			StaticSpec(policy.SJF),
			StaticSpec(robust),
			AdaptiveSpec(robust, 8, 3),
		},
		Workers: 2,
	}
	factors := []float64{1, 2, 5}
	res, err := Fairness(cfg, factors)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(factors) * len(cfg.Schedulers); len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if len(c.SLDwAPerSet) != cfg.Sets || len(c.AWTPerSet) != cfg.Sets {
			t.Fatalf("cell %s x%.1f: per-set lengths %d/%d",
				c.Scheduler, c.Factor, len(c.SLDwAPerSet), len(c.AWTPerSet))
		}
		if c.SLDwA < 1 {
			t.Errorf("cell %s x%.1f: SLDwA %f < 1 (slowdown is >= 1 by definition)",
				c.Scheduler, c.Factor, c.SLDwA)
		}
		if c.Util <= 0 || c.Util > 1 {
			t.Errorf("cell %s x%.1f: util %f out of (0,1]", c.Scheduler, c.Factor, c.Util)
		}
		if c.AWT < 0 {
			t.Errorf("cell %s x%.1f: negative AWT %f", c.Scheduler, c.Factor, c.AWT)
		}
	}
	// Lookup finds configured cells and misses unconfigured ones.
	if res.Cell(2, "SJF") == nil {
		t.Error("Cell(2, SJF) missing")
	}
	if res.Cell(3, "SJF") != nil {
		t.Error("Cell(3, SJF) exists but was never configured")
	}

	// The table renders one row per factor plus a separator.
	names := make([]string, len(cfg.Schedulers))
	for i, s := range cfg.Schedulers {
		names[i] = s.Name
	}
	tbl := FairnessTable([]*FairnessResult{res}, factors, names)
	if tbl.Len() != len(factors)+1 {
		t.Errorf("table rows = %d, want %d", tbl.Len(), len(factors)+1)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PSBS(a=0.5,r=2)", "adaptive(", "est x"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered table missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFairnessValidates(t *testing.T) {
	cfg := Config{Model: workload.KTH, Sets: 1, JobsPerSet: 10,
		Schedulers: []SchedulerSpec{StaticSpec(policy.SJF)}}
	if _, err := Fairness(cfg, nil); err == nil {
		t.Error("empty factor list accepted")
	}
	if _, err := Fairness(Config{Model: workload.KTH, Sets: 0, JobsPerSet: 10,
		Schedulers: cfg.Schedulers}, []float64{1}); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := Fairness(cfg, []float64{-1}); err == nil {
		t.Error("negative factor accepted")
	}
}

// TestAdaptiveSpecObservesThroughSimRun pins the wiring: a driver built
// by AdaptiveSpec runs through the plain sim.Run entry point with no
// observer options, and its decider still hears every step's backlog
// from its tuner, enough to engage pressure mode.
func TestAdaptiveSpecObservesThroughSimRun(t *testing.T) {
	spec := AdaptiveSpec(policy.MustFairSize(0, 1), 2, 2)
	driver := spec.New()
	set, err := workload.KTH.Generate(200, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(set, driver)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != spec.Name {
		t.Errorf("scheduler label %q, want %q", res.Scheduler, spec.Name)
	}
	tuner := driver.(*sim.DynP).Tuner
	if tuner.Stats().Steps == 0 {
		t.Fatal("the tuner made no decisions")
	}
	if snap := tuner.Decider().(*adaptive.Decider).Snapshot(); snap.Unfair == 0 {
		t.Fatalf("the decider never decided under pressure (%+v); it hears no backlog", snap)
	}
	// Table-1 cases exist only over the paper's three-candidate set; the
	// PSBS run above extends it, so its case counts stay zero by design.
	if cases := tuner.Cases(); cases != (core.CaseCounts{}) {
		t.Errorf("extended candidate set produced Table-1 cases: %v", cases.Map())
	}

	// With the fairness policy inside the paper set, the candidate triple
	// is unchanged and every decision has its case.
	spec = AdaptiveSpec(policy.SJF, 2, 2)
	driver = spec.New()
	if _, err := sim.Run(set, driver); err != nil {
		t.Fatal(err)
	}
	st := driver.(*sim.DynP).Tuner.Stats()
	total := 0
	for _, n := range st.Cases {
		total += n
	}
	if total != st.Steps {
		t.Errorf("%d decisions counted by Table-1 case, want every one of the %d", total, st.Steps)
	}
}

// TestFairnessSchedulersParse pins that every scheduler of the study can
// also be resolved from its name alone — the registry path users take.
func TestFairnessSchedulersParse(t *testing.T) {
	for _, s := range FairnessSchedulers() {
		if _, err := ParseSpec(s.Name); err != nil {
			t.Errorf("ParseSpec(%q): %v", s.Name, err)
		}
	}
}
