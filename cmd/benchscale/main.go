// Command benchscale measures how the scheduler's throughput scales with
// cores and writes the measurements as a JSON snapshot (BENCH_scale.json)
// so CI can fail on multi-core scaling regressions. Two families of
// rows, each at GOMAXPROCS 1, 2, 4 and all cores (deduplicated):
//
//   - experiment: the (shrink, scheduler, set) sweep of internal/
//     experiment on the shard pool — end-to-end jobs/s of
//     the paper's evaluation harness;
//
//   - simpar: sim.RunParallel over independent replicas of one job set —
//     end-to-end jobs/s of the sharded simulator.
//
//     benchscale -out BENCH_scale.json
//     benchscale -check BENCH_scale.json   # compare a fresh run against a baseline
//
// Absolute jobs/s vary with the machine, so -check gates on
// machine-neutral ratios: each family's p-core-over-1-core speedup. The
// gate is hardware-aware — a ratio at p cores is enforced only when the
// machine actually has p cores (runtime.NumCPU), and only against
// baseline rows recorded on a machine that had them; rows beyond either
// machine's cores are recorded for trajectory tracking but never gated.
// On a >= 4-core machine the experiment sweep must additionally clear an
// absolute 2x floor at 4 cores, the PR's acceptance bar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"dynp/internal/core"
	"dynp/internal/experiment"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// row is one measurement: a named workload at one GOMAXPROCS setting.
type row struct {
	Name       string  `json:"name"`
	Procs      int     `json:"procs"` // GOMAXPROCS and worker count of this row
	NsPerOp    int64   `json:"ns_per_op"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

// scalingRow is a derived row: how many times faster the family runs at
// Procs cores than at 1 core. This is what -check gates on.
type scalingRow struct {
	Name  string  `json:"name"`
	Procs int     `json:"procs"`
	Ratio float64 `json:"ratio"` // 1-core ns / p-core ns
}

type snapshot struct {
	NumCPU  int          `json:"numcpu"` // cores of the recording machine; bounds which ratios are gateable
	Note    string       `json:"note"`
	Rows    []row        `json:"rows"`
	Scaling []scalingRow `json:"scaling"`
}

const (
	// The experiment sweep: enough independent cells that every worker
	// count divides into real work, small enough to finish in seconds.
	expSets, expJobsPerSet = 8, 300
	expShrink              = 0.8
	// The sim.RunParallel family: independent replicas of one set.
	simReplicas, simJobs = 8, 400
	// maxRegression is how far a scaling ratio may fall below its
	// baseline before -check fails the build.
	maxRegression = 0.10
	// floorProcs/floorRatio: on a machine with >= floorProcs cores the
	// experiment sweep must scale at least floorRatio x at floorProcs
	// cores regardless of the baseline file (the PR's acceptance bar).
	floorProcs = 4
	floorRatio = 2.0
)

// floorFamily is the end-to-end family the absolute floor applies to.
const floorFamily = "experiment"

func main() {
	out := flag.String("out", "BENCH_scale.json", "output file ('-' for stdout)")
	check := flag.String("check", "", "baseline BENCH_scale.json to compare a fresh run against (no output written)")
	flag.Parse()

	if *check != "" {
		raw, err := os.ReadFile(*check)
		fail(err)
		var base snapshot
		fail(json.Unmarshal(raw, &base))
		os.Exit(compare(base, measure()))
	}

	snap := measure()
	enc, err := json.MarshalIndent(snap, "", "  ")
	fail(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	fail(err)
}

// procSteps returns the deduplicated, ascending GOMAXPROCS settings to
// measure: 1, 2, 4 and every core the machine has. Settings beyond
// NumCPU are still measured — time-sliced, they cannot speed up, and the
// snapshot records NumCPU so -check knows not to gate them.
func procSteps() []int {
	steps := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	var out []int
	for p := range steps {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func measure() snapshot {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // restore on exit
	snap := snapshot{
		NumCPU: runtime.NumCPU(),
		Note: "end-to-end multi-core scaling of the sharded paths: the " +
			"experiment sweep and sim.RunParallel on the internal/shard " +
			"claim-counter pool. Ratios beyond numcpu record " +
			"time-slicing overhead, not scaling; -check gates only " +
			"ratios both machines have the cores for.",
	}

	// Shrink rescales submit times but never drops jobs, so the sweep
	// simulates exactly sets x jobs x schedulers jobs per iteration.
	const expTotal = expSets * expJobsPerSet

	one, err := workload.KTH.GenerateSets(1, simJobs, 2)
	fail(err)
	shrunk := one[0].Shrink(expShrink)
	replicas := make([]*job.Set, simReplicas)
	for i := range replicas {
		replicas[i] = shrunk
	}

	for _, procs := range procSteps() {
		runtime.GOMAXPROCS(procs)

		// experiment: the full sweep, workers = procs. Two schedulers so
		// the task list mixes cheap and expensive cells, the shape the
		// strided shard pool is built for.
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiment.Run(experiment.Config{
					Model:      workload.KTH,
					Shrinks:    []float64{expShrink},
					Sets:       expSets,
					JobsPerSet: expJobsPerSet,
					Seed:       1,
					Workers:    procs,
					Schedulers: []experiment.SchedulerSpec{
						experiment.StaticSpec(policy.SJF),
						experiment.DynPSpec(core.Advanced{}),
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		snap.Rows = append(snap.Rows, throughputRow("experiment", procs, res.NsPerOp(), 2*expTotal))

		// simpar: independent replicas of one contended set.
		res = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunParallel(replicas, func() sim.Driver { return sim.NewDynP(core.Advanced{}) }, procs); err != nil {
					b.Fatal(err)
				}
			}
		})
		snap.Rows = append(snap.Rows, throughputRow("simpar", procs, res.NsPerOp(), simReplicas*len(shrunk.Jobs)))
	}

	snap.Scaling = scaling(snap.Rows)
	for _, s := range snap.Scaling {
		fmt.Fprintf(os.Stderr, "%-12s procs %2d  scaling %.2fx\n", s.Name, s.Procs, s.Ratio)
	}
	return snap
}

func throughputRow(name string, procs int, nsPerOp int64, jobs int) row {
	r := row{
		Name: name, Procs: procs, NsPerOp: nsPerOp,
		JobsPerSec: float64(jobs) / (float64(nsPerOp) / 1e9),
	}
	fmt.Fprintf(os.Stderr, "%-12s procs %2d  %12d ns/op  %10.0f jobs/s\n", r.Name, r.Procs, r.NsPerOp, r.JobsPerSec)
	return r
}

// scaling derives each family's 1-core-over-p-core time ratio (== p-core
// throughput gain).
func scaling(rows []row) []scalingRow {
	oneCore := make(map[string]int64)
	for _, r := range rows {
		if r.Procs == 1 {
			oneCore[r.Name] = r.NsPerOp
		}
	}
	var out []scalingRow
	for _, r := range rows {
		if r.Procs == 1 || r.NsPerOp <= 0 || oneCore[r.Name] <= 0 {
			continue
		}
		out = append(out, scalingRow{
			Name: r.Name, Procs: r.Procs,
			Ratio: float64(oneCore[r.Name]) / float64(r.NsPerOp),
		})
	}
	return out
}

// compare gates a fresh run against the baseline: every gateable scaling
// ratio must hold to within maxRegression of its baseline, and the
// experiment family must clear the absolute floor at 4 cores when the
// machine has them. A ratio is gateable when this machine has the cores
// (procs <= fresh numcpu); the baseline ratio participates only when the
// recording machine had them too, otherwise the floor alone applies.
func compare(base, fresh snapshot) int {
	baseline := make(map[string]float64)
	for _, s := range base.Scaling {
		baseline[fmt.Sprintf("%s/%d", s.Name, s.Procs)] = s.Ratio
	}
	bad := 0
	for _, s := range fresh.Scaling {
		key := fmt.Sprintf("%s/%d", s.Name, s.Procs)
		if s.Procs > fresh.NumCPU {
			fmt.Fprintf(os.Stderr, "benchscale: %-16s scaling %.2fx (not gated: this machine has %d cores)\n",
				key, s.Ratio, fresh.NumCPU)
			continue
		}
		limit := 0.0
		if b, ok := baseline[key]; ok && s.Procs <= base.NumCPU {
			limit = b * (1 - maxRegression)
		} else {
			fmt.Fprintf(os.Stderr, "benchscale: %s: baseline recorded on a %d-core machine, floor only\n",
				key, base.NumCPU)
		}
		if s.Name == floorFamily && s.Procs == floorProcs && limit < floorRatio {
			limit = floorRatio
		}
		status := "ok"
		if s.Ratio < limit {
			status = "REGRESSION"
			bad++
		}
		fmt.Fprintf(os.Stderr, "benchscale: %-16s scaling %.2fx (limit %.2fx): %s\n", key, s.Ratio, limit, status)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchscale: %d scaling regression(s) beyond %.0f%%\n", bad, maxRegression*100)
		return 1
	}
	return 0
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchscale:", err)
		os.Exit(1)
	}
}
