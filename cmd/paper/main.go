// Command paper regenerates every table and figure of the paper's
// evaluation section from fresh simulations.
//
// Usage:
//
//	paper [flags]
//
// By default it runs the paper's configuration: 10 sets of 10,000 jobs
// per trace. -sets and -jobs shrink it for quick looks; the ablation and
// fairness studies are documented at -sets 5 -jobs 2500. The Makefile's
// repro target records how long the paper run takes. Table 1 needs no
// simulation and always reproduces exactly.
//
// Examples:
//
//	paper -table 1              # decision analysis of the simple decider
//	paper -table all -figure all
//	paper -figure 3 -ascii      # dynP slowdown curves as terminal plots
//	paper -traces CTC,SDSC -shrinks 1.0,0.8 -sets 4 -jobs 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynp"
)

func main() {
	var (
		tables   = flag.String("table", "", "tables to print: 1,2,3,4,5 or 'all'")
		figures  = flag.String("figure", "", "figures to print: 1,2,3,4 or 'all'")
		ablation = flag.String("ablation", "", "ablation study: pref, decider, metric, easy, candidates or 'all'")
		shares   = flag.Bool("shares", false, "also print the dynP policy-usage tables")
		detail   = flag.Bool("detail", false, "also print per-set dispersion (min/max/stddev)")
		traces   = flag.String("traces", "CTC,KTH,LANL,SDSC", "comma-separated trace models")
		shrinks  = flag.String("shrinks", "1.0,0.9,0.8,0.7,0.6", "comma-separated shrinking factors")
		sets     = flag.Int("sets", 10, "job sets per trace")
		jobs     = flag.Int("jobs", 10000, "jobs per set")
		seed     = flag.Uint64("seed", 2004, "base random seed")
		workers  = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		fairness = flag.Bool("fairness", false,
			"run the fairness study: size-based (PSBS) scheduling under estimate overestimation")
		overestimates = flag.String("overestimates", "1,2,5",
			"comma-separated estimate scale factors for -fairness")
		registerInactive = flag.Bool("register-inactive", false,
			"register a custom policy and decider that stay unused (CI: output must be byte-identical)")
		ascii = flag.Bool("ascii", false, "render figures as terminal plots instead of data series")
		csv   = flag.Bool("csv", false, "render tables as CSV")
		quiet = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *registerInactive {
		fail(registerInactiveExtensions())
	}

	if *tables == "" && *figures == "" && *ablation == "" && !*fairness {
		*tables, *figures = "all", "all"
	}

	wantTables, err := parseList(*tables, 5)
	fail(err)
	wantFigures, err := parseList(*figures, 4)
	fail(err)

	models, err := parseModels(*traces)
	fail(err)
	shrinkVals, err := parseFloats(*shrinks)
	fail(err)

	// Tables 1 and 2 need no policy sweep.
	if wantTables[1] {
		render(dynp.PaperTable1(), *csv)
	}
	if wantTables[2] {
		t2, err := dynp.PaperTable2(models, *jobs, *seed)
		fail(err)
		render(t2, *csv)
	}

	baseCfg := func(schedulers []dynp.SchedulerSpec, label string) dynp.ExperimentConfig {
		cfg := dynp.ExperimentConfig{
			Shrinks:    shrinkVals,
			Sets:       *sets,
			JobsPerSet: *jobs,
			Seed:       *seed,
			Schedulers: schedulers,
			Workers:    *workers,
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s: %d traces x %d shrinks x %d schedulers x %d sets x %d jobs\n",
				label, len(models), len(shrinkVals), len(schedulers), *sets, *jobs)
			start := time.Now()
			var mu sync.Mutex
			var lastPct int
			cfg.Progress = func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				pct := done * 100 / total
				if pct < lastPct { // a new trace's sweep started
					lastPct = pct
				}
				if pct >= lastPct+5 {
					lastPct = pct
					fmt.Fprintf(os.Stderr, "  %3d%% (%v)\n", pct, time.Since(start).Round(time.Second))
				}
			}
		}
		return cfg
	}

	needSweep := wantTables[3] || wantTables[4] || wantTables[5] ||
		wantFigures[1] || wantFigures[2] || wantFigures[3] || wantFigures[4]
	var results []*dynp.ExperimentResult
	if needSweep {
		var err error
		results, err = dynp.RunExperiments(models, baseCfg(dynp.PaperSchedulers(), "paper sweep"))
		fail(err)
	}

	if needSweep {
		printPaperOutputs(results, wantTables, wantFigures, shrinkVals, *csv, *ascii)
		if *shares {
			for _, sched := range []string{"dynP/advanced", "dynP/SJF-preferred"} {
				render(dynp.PolicySharesTable(results, shrinkVals, sched), *csv)
			}
		}
		if *detail {
			render(dynp.DetailTable(results, shrinkVals), *csv)
		}
	}

	if *ablation != "" {
		studies := dynp.Ablations()
		if *ablation != "all" {
			studies = nil
			for _, name := range strings.Split(*ablation, ",") {
				studies = append(studies, dynp.Ablation(strings.TrimSpace(name)))
			}
		}
		for _, study := range studies {
			specs, err := study.Schedulers()
			fail(err)
			res, err := dynp.RunExperiments(models, baseCfg(specs, "ablation "+string(study)))
			fail(err)
			names := make([]string, len(specs))
			for i, s := range specs {
				names[i] = s.Name
			}
			render(dynp.ComparisonTable(study.Title(), res, shrinkVals, names), *csv)
		}
	}

	if *fairness {
		factors, err := parseFactors(*overestimates)
		fail(err)
		specs := dynp.FairnessSchedulers()
		results := make([]*dynp.FairnessResult, 0, len(models))
		for _, m := range models {
			cfg := baseCfg(specs, "fairness study "+m.Name)
			cfg.Model = m
			cfg.Shrinks = nil // the fairness study sweeps estimate factors, not load
			r, err := dynp.RunFairness(cfg, factors)
			fail(err)
			results = append(results, r)
		}
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		render(dynp.FairnessTable(results, factors, names), *csv)
	}
}

// inactivePolicy and inactiveDecider exist only to be registered and
// never used: CI runs the paper pipeline with -register-inactive
// and asserts byte-identical output, proving registration alone cannot
// perturb scheduling.
type inactivePolicy struct{}

func (inactivePolicy) Name() string             { return "ci-inactive" }
func (inactivePolicy) Less(a, b *dynp.Job) bool { return dynp.TieBreak(a, b) }

type inactiveDecider struct{ inner dynp.Decider }

func (d inactiveDecider) Name() string { return "ci-inactive" }
func (d inactiveDecider) Decide(old dynp.Policy, candidates []dynp.Policy, values []float64) dynp.Policy {
	return d.inner.Decide(old, candidates, values)
}

func registerInactiveExtensions() error {
	if err := dynp.RegisterPolicy(inactivePolicy{}); err != nil {
		return err
	}
	return dynp.RegisterDecider("ci-inactive", func() dynp.Decider {
		return inactiveDecider{inner: dynp.AdvancedDecider()}
	})
}

// parseFactors parses the -overestimates list (factors >= 1).
func parseFactors(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f < 1 || f > 100 {
			return nil, fmt.Errorf("paper: invalid overestimation factor %q (want 1..100)", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func printPaperOutputs(results []*dynp.ExperimentResult, wantTables, wantFigures map[int]bool,
	shrinkVals []float64, csv, ascii bool) {
	if wantTables[4] {
		render(dynp.PaperTable4(results, shrinkVals), csv)
	}
	if wantTables[5] {
		render(dynp.PaperTable5(results, shrinkVals), csv)
	}
	if wantTables[3] {
		render(dynp.PaperTable3(results, shrinkVals), csv)
	}
	for n := 1; n <= 4; n++ {
		if !wantFigures[n] {
			continue
		}
		figs, err := dynp.PaperFigure(results, n, shrinkVals)
		fail(err)
		for _, f := range figs {
			if ascii {
				fail(f.ASCII(os.Stdout, 72, 18))
			} else {
				fail(f.Render(os.Stdout))
			}
			fmt.Println()
		}
	}
}

func render(t *dynp.Table, csv bool) {
	if csv {
		fail(t.RenderCSV(os.Stdout))
	} else {
		fail(t.Render(os.Stdout))
	}
	fmt.Println()
}

// parseList parses "1,3" or "all" into a presence map over 1..max.
func parseList(s string, max int) (map[int]bool, error) {
	out := make(map[int]bool)
	if s == "" {
		return out, nil
	}
	if s == "all" {
		for i := 1; i <= max; i++ {
			out[i] = true
		}
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > max {
			return nil, fmt.Errorf("paper: invalid selection %q (want 1..%d or 'all')", part, max)
		}
		out[n] = true
	}
	return out, nil
}

func parseModels(s string) ([]dynp.Model, error) {
	var out []dynp.Model
	for _, name := range strings.Split(s, ",") {
		m, err := dynp.ModelByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f <= 0 || f > 2 {
			return nil, fmt.Errorf("paper: invalid shrinking factor %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}
