package experiment

import (
	"math"
	"sync/atomic"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// smallConfig is a fast sweep used throughout the tests.
func smallConfig() Config {
	return Config{
		Model:      workload.KTH,
		Shrinks:    []float64{1.0, 0.8},
		Sets:       4,
		JobsPerSet: 300,
		Seed:       1,
		Schedulers: PaperSchedulers(),
	}
}

func TestRunProducesAllCells(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(PaperSchedulers()); len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if len(c.SLDwAPerSet) != 4 || len(c.UtilPerSet) != 4 {
			t.Fatalf("cell %s/%.1f missing per-set values", c.Scheduler, c.Shrink)
		}
		if c.SLDwA < 1 {
			t.Fatalf("cell %s/%.1f SLDwA %v < 1", c.Scheduler, c.Shrink, c.SLDwA)
		}
		if c.Util <= 0 || c.Util > 1 {
			t.Fatalf("cell %s/%.1f util %v out of (0,1]", c.Scheduler, c.Shrink, c.Util)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i].SLDwA != b.Cells[i].SLDwA || a.Cells[i].Util != b.Cells[i].Util {
			t.Fatalf("cell %d differs across worker counts", i)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bads := []func(*Config){
		func(c *Config) { c.Sets = 0 },
		func(c *Config) { c.JobsPerSet = 0 },
		func(c *Config) { c.Shrinks = nil },
		func(c *Config) { c.Schedulers = nil },
	}
	for i, mutate := range bads {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCellLookup(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Cell(1.0, NameSJF); c == nil || c.Scheduler != NameSJF {
		t.Fatal("Cell lookup failed")
	}
	if c := res.Cell(0.5, NameSJF); c != nil {
		t.Fatal("Cell returned a non-existent shrink")
	}
}

// neverDriver plans nothing, so no job ever starts and sim.Run fails
// deterministically once the submission events drain.
type neverDriver struct{}

func (neverDriver) Name() string { return "never" }

func (neverDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	return &plan.Schedule{Now: now, Capacity: capacity, Policy: policy.FCFS}
}

func (neverDriver) ActivePolicy() policy.Policy { return policy.FCFS }

func TestRunShortCircuitsOnFailure(t *testing.T) {
	// A sweep mixing a scheduler that fails every simulation with a healthy
	// one: the first failure must cancel the sweep instead of letting the
	// other workers simulate the remaining tasks. Tasks are claimed
	// scheduler-minor, so the failing spec's first task is claimed
	// immediately and fails in well under the time the healthy worker needs
	// to get through even a fraction of its 30 tasks.
	var goodRuns atomic.Int64
	cfg := Config{
		Model:      workload.KTH,
		Shrinks:    []float64{1.0},
		Sets:       30,
		JobsPerSet: 200,
		Seed:       1,
		Workers:    2,
		Schedulers: []SchedulerSpec{
			{Name: "never", New: func() sim.Driver { return neverDriver{} }},
			{Name: "SJF", New: func() sim.Driver {
				goodRuns.Add(1)
				return &sim.Static{Policy: policy.SJF}
			}},
		},
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("sweep with an always-failing scheduler reported no error")
	}
	if n := goodRuns.Load(); n >= 15 {
		t.Fatalf("sweep kept simulating after the failure: %d of 30 healthy tasks ran", n)
	}
}

func TestCellMatchesRecomputedShrink(t *testing.T) {
	// Callers often recompute shrink factors arithmetically; the float64
	// they derive need not be bit-identical to the configured one. The
	// lookup must match within an epsilon instead of ==. 0.1+0.2 is the
	// canonical IEEE 754 example: it differs from the literal 0.3. The
	// operands are variables so the addition happens at runtime in float64
	// (Go folds constant expressions in arbitrary precision).
	tenth, fifth := 0.1, 0.2
	shrink := tenth + fifth
	if shrink == 0.3 {
		t.Fatal("runtime 0.1+0.2 == 0.3: the platform is not using IEEE 754 doubles")
	}
	cfg := smallConfig()
	cfg.Sets, cfg.JobsPerSet = 1, 30
	cfg.Shrinks = []float64{shrink}
	cfg.Schedulers = []SchedulerSpec{StaticSpec(policy.SJF)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Cell(0.3, NameSJF); c == nil {
		t.Fatalf("Cell(0.3) missed the cell configured with shrink %v", shrink)
	}
	if c := res.Cell(0.4, NameSJF); c != nil {
		t.Fatal("epsilon lookup matched a clearly different factor")
	}

	// The fairness study's estimate factors match by the same rule:
	// 1.1+2.2 at run time is not the literal 3.3.
	one, two := 1.1, 2.2
	factor := one + two
	if factor == 3.3 {
		t.Fatal("runtime 1.1+2.2 == 3.3: the platform is not using IEEE 754 doubles")
	}
	fair, err := Fairness(cfg, []float64{factor})
	if err != nil {
		t.Fatal(err)
	}
	if c := fair.Cell(3.3, NameSJF); c == nil {
		t.Fatalf("FairnessResult.Cell(3.3) missed the cell configured with factor %v", factor)
	}
	if c := fair.Cell(3.4, NameSJF); c != nil {
		t.Fatal("epsilon lookup matched a clearly different estimate factor")
	}
}

func TestProgressSerializedAndOrdered(t *testing.T) {
	// cfg.Progress is documented to be called serially with strictly
	// increasing done counts. The callback below is deliberately
	// unsynchronized: under `go test -race` any concurrent invocation is
	// flagged, and the recorded sequence checks the ordering contract.
	cfg := smallConfig()
	cfg.Sets, cfg.JobsPerSet = 3, 80
	cfg.Workers = 4
	var seen []int
	cfg.Progress = func(done, total int) {
		if total != 2*len(PaperSchedulers())*3 {
			t.Errorf("progress total = %d", total)
		}
		seen = append(seen, done)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2*len(PaperSchedulers())*3 {
		t.Fatalf("progress called %d times, want %d", len(seen), 2*len(PaperSchedulers())*3)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done counts out of order: %v", seen)
		}
	}
}

func TestHigherLoadRaisesSLDwA(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{NameFCFS, NameSJF, NameLJF} {
		light := res.Cell(1.0, sched)
		heavy := res.Cell(0.8, sched)
		if heavy.SLDwA < light.SLDwA {
			t.Errorf("%s: SLDwA fell from %.2f to %.2f under higher load",
				sched, light.SLDwA, heavy.SLDwA)
		}
		if heavy.Util < light.Util {
			t.Errorf("%s: utilization fell from %.3f to %.3f under higher load",
				sched, light.Util, heavy.Util)
		}
	}
}

func TestDynPTracksPolicyShares(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cell(0.8, NameAdv)
	var total float64
	for _, s := range c.PolicyShare {
		total += s
	}
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("policy shares sum to %v", total)
	}
	if c.Switches <= 0 {
		t.Fatal("dynP reported no policy switches on a mixed workload")
	}
	// Static schedulers report no switches and a single policy.
	s := res.Cell(0.8, NameSJF)
	if s.Switches != 0 {
		t.Fatal("static scheduler reported switches")
	}
	if math.Abs(s.PolicyShare[policy.SJF]-1) > 1e-9 {
		t.Fatalf("static SJF share = %v", s.PolicyShare[policy.SJF])
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := smallConfig()
	cfg.Sets, cfg.JobsPerSet = 2, 100
	var calls int
	cfg.Progress = func(done, total int) {
		calls++
		if done < 1 || done > total {
			t.Errorf("progress %d/%d out of range", done, total)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress never called")
	}
}

func TestRunAll(t *testing.T) {
	cfg := smallConfig()
	cfg.Sets, cfg.JobsPerSet = 2, 100
	cfg.Shrinks = []float64{1.0}
	results, err := RunAll([]workload.Model{workload.KTH, workload.SDSC}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Model.Name != "KTH" || results[1].Model.Name != "SDSC" {
		t.Fatalf("RunAll results wrong: %d", len(results))
	}
}

func TestParseSpec(t *testing.T) {
	good := []string{"FCFS", "SJF", "LJF", "dynP/simple", "dynP/advanced", "dynP/SJF-preferred"}
	for _, name := range good {
		spec, err := ParseSpec(name)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", name, err)
			continue
		}
		if spec.New() == nil {
			t.Errorf("ParseSpec(%q): nil driver", name)
		}
	}
	for _, bad := range []string{"", "bogus", "dynP/", "dynP/xx"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecsProduceFreshDrivers(t *testing.T) {
	spec := DynPSpec(core.Advanced{})
	a, b := spec.New(), spec.New()
	if a == b {
		t.Fatal("DynPSpec reuses driver instances")
	}
}
