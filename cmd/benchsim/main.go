// Command benchsim measures the simulation-facing cost of the availability
// profile — EarliestFit and Alloc micro-benchmarks on the indexed Profile
// against the flat-array Linear baseline at several profile sizes, plus
// end-to-end sim.Run throughput on generated KTH workloads — and writes the
// measurements as a JSON snapshot (BENCH_sim.json) so CI can fail on
// performance regressions.
//
//	benchsim -out BENCH_sim.json
//	benchsim -check BENCH_sim.json   # compare a fresh run against a baseline
//
// Absolute nanoseconds vary with the machine, so -check gates on
// machine-neutral ratios instead: the indexed-over-linear speedup of every
// micro-benchmark pair (with a hard 2x floor at the largest profile size)
// and the 10k-over-1k jobs/sec scaling of the end-to-end rows. A fresh
// ratio may fall at most 10% below the baseline ratio. The -check run
// pins GOMAXPROCS to the value the baseline was recorded at (erroring if
// the environment demands a conflicting one), so the two measurements
// see the same machine shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"dynp/internal/benchgate"
	"dynp/internal/core"
	"dynp/internal/profile"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// micro is one micro-benchmark row: the named operation on a profile with
// Steps steps, for one of the two implementations.
type micro struct {
	Name    string `json:"name"` // "earliestfit" or "alloc"
	Impl    string `json:"impl"` // "indexed" or "linear"
	Steps   int    `json:"steps"`
	NsPerOp int64  `json:"ns_per_op"`
}

// speedup is a derived row: how many times faster the indexed profile runs
// the operation than the linear baseline at the same size. This is what
// -check gates on.
type speedup struct {
	Name  string  `json:"name"`
	Steps int     `json:"steps"`
	Ratio float64 `json:"ratio"` // linear ns / indexed ns
}

// simRow is one end-to-end row: a full sim.Run of the dynP advanced
// scheduler over a generated KTH job set.
type simRow struct {
	Name       string  `json:"name"`
	Jobs       int     `json:"jobs"`
	NsPerOp    int64   `json:"ns_per_op"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

type snapshot struct {
	GoMaxProcs int       `json:"gomaxprocs"`
	Capacity   int       `json:"capacity"`
	Note       string    `json:"note"`
	Micro      []micro   `json:"micro"`
	Speedups   []speedup `json:"speedups"`
	Sim        []simRow  `json:"sim"`
}

const (
	// capacity of the synthetic machine the micro-benchmarks run on. Large
	// enough that reservation widths can vary widely without freeing the
	// profile for the probe width below.
	capacity = 1024
	// probeWidth is the width EarliestFit searches for: every step the
	// builders produce stays below it, so the search must traverse the
	// whole busy region before finding the free tail.
	probeWidth = 1000
	// maxRegression is how far a speedup or scaling ratio may fall below
	// its baseline before -check fails the build.
	maxRegression = 0.10
	// floorSteps/floorRatio: at the largest micro-benchmark size the
	// indexed profile must beat the linear baseline by at least this
	// factor regardless of the baseline file (the PR's acceptance bar).
	floorSteps = 4096
	floorRatio = 2.0
	// gateSteps: speedup rows below this size are reported but not gated.
	// The 256-step rows run in tens of microseconds and swing ±20% between
	// runs of this container, and small profiles are explicitly not where
	// the index claims to win — gating them would only make CI flaky.
	gateSteps = 1024
	// simShrink compresses the KTH interarrival times so the machine is
	// contended and queues (and thus profiles) grow.
	simShrink = 0.8
)

var microSizes = []int{256, 1024, 4096}
var simJobs = []int{1000, 10000}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output file ('-' for stdout)")
	check := flag.String("check", "", "baseline BENCH_sim.json to compare a fresh run against (no output written)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement run to this file (pprof format)")
	flag.Parse()

	if *check != "" {
		// Load the baseline before measuring: the fresh run must execute at
		// the GOMAXPROCS the baseline was recorded at, or the ratios are not
		// comparable (a 4-core runner checking a 1-core snapshot would gate
		// scheduler noise, not regressions).
		raw, err := os.ReadFile(*check)
		fail(err)
		var base snapshot
		fail(json.Unmarshal(raw, &base))
		fail(benchgate.PinProcs("benchsim", base.GoMaxProcs))
		os.Exit(compare(base, measureProfiled(*cpuprofile)))
	}

	snap := measureProfiled(*cpuprofile)
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

// allocPlan returns the deterministic reservation sequence that builds a
// profile with steps steps: contiguous [slot*16, slot*16+16) intervals
// visited in scattered order (so boundary splits land mid-array, the
// linear implementation's worst case) with varying widths. The finished
// profile is one long busy plateau — every step below probeWidth, no two
// adjacent steps equal — followed by a single fully-free tail step.
type reservation struct {
	start int64
	width int
}

func allocPlan(steps int) []reservation {
	n := steps - 1      // n contiguous intervals leave n+1 boundaries
	stride := n*5/8 | 1 // any stride coprime to n walks every slot once
	for gcd(stride, n) != 1 {
		stride += 2
	}
	plan := make([]reservation, n)
	slot := 0
	for i := 0; i < n; i++ {
		slot = (slot + stride) % n
		plan[i] = reservation{
			start: int64(slot * 16),
			width: 100 + (slot*37)%800, // free stays in [124, 924], never >= probeWidth
		}
	}
	return plan
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// buildIndexed replays the reservation plan into a fresh indexed profile.
func buildIndexed(p *profile.Profile, plan []reservation) {
	p.Reset(capacity, 0)
	for _, r := range plan {
		p.Alloc(r.start, r.width, 16)
	}
}

// buildLinear replays the reservation plan into a fresh linear profile.
func buildLinear(p *profile.Linear, plan []reservation) {
	p.Reset(capacity, 0)
	for _, r := range plan {
		p.Alloc(r.start, r.width, 16)
	}
}

func microRow(name, impl string, steps int, fn func(b *testing.B)) micro {
	res := testing.Benchmark(fn)
	m := micro{Name: name, Impl: impl, Steps: steps, NsPerOp: res.NsPerOp()}
	fmt.Fprintf(os.Stderr, "%-12s %-8s %5d steps  %12d ns/op\n", name, impl, steps, m.NsPerOp)
	return m
}

// measureProfiled is measure with an optional CPU profile around the
// whole measurement — CI uploads it as an artifact so hot-path work can
// start from real numbers instead of a local repro. Explicit stop/close
// rather than defers: the -check path exits through os.Exit.
func measureProfiled(cpuprofile string) snapshot {
	if cpuprofile == "" {
		return measure()
	}
	f, err := os.Create(cpuprofile)
	fail(err)
	fail(pprof.StartCPUProfile(f))
	snap := measure()
	pprof.StopCPUProfile()
	fail(f.Close())
	return snap
}

func measure() snapshot {
	snap := snapshot{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Capacity:   capacity,
		Note: "pre-index baseline (flat-array Profile wired into the " +
			"engine): sim/dynp 120170 jobs/s at 1k jobs and 26364 jobs/s " +
			"at 10k jobs (KTH, shrink 0.8, GOMAXPROCS=1, same container); " +
			"the linear micro rows below are the live flat-array baseline",
	}

	for _, steps := range microSizes {
		plan := allocPlan(steps)

		// EarliestFit: the profile is prepared outside the timer (the query
		// does not mutate) and every op searches past the whole busy region.
		idx := profile.New(capacity, 0)
		buildIndexed(idx, plan)
		lin := profile.NewLinear(capacity, 0)
		buildLinear(lin, plan)
		ef := func(p interface {
			EarliestFit(int64, int, int64) int64
		}) func(b *testing.B) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.EarliestFit(0, probeWidth, 64)
				}
			}
		}
		snap.Micro = append(snap.Micro,
			microRow("earliestfit", "indexed", steps, ef(idx)),
			microRow("earliestfit", "linear", steps, ef(lin)))

		// Alloc: each op rebuilds the whole profile from its own storage, so
		// the row measures the full split-and-subtract path (steps/2 calls)
		// including mid-array boundary insertion.
		snap.Micro = append(snap.Micro,
			microRow("alloc", "indexed", steps, func(b *testing.B) {
				p := profile.New(capacity, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buildIndexed(p, plan)
				}
			}),
			microRow("alloc", "linear", steps, func(b *testing.B) {
				p := profile.NewLinear(capacity, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buildLinear(p, plan)
				}
			}))
	}
	snap.Speedups = speedups(snap.Micro)
	for _, s := range snap.Speedups {
		fmt.Fprintf(os.Stderr, "%-12s %5d steps  speedup %.2fx\n", s.Name, s.Steps, s.Ratio)
	}

	for _, jobs := range simJobs {
		sets, err := workload.KTH.GenerateSets(1, jobs, 1)
		fail(err)
		set := sets[0].Shrink(simShrink)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(set, sim.NewDynP(core.Advanced{})); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := simRow{
			Name:       "sim/dynp",
			Jobs:       jobs,
			NsPerOp:    res.NsPerOp(),
			JobsPerSec: float64(jobs) / (float64(res.NsPerOp()) / 1e9),
		}
		fmt.Fprintf(os.Stderr, "%-12s %5d jobs   %12d ns/op  %10.0f jobs/s\n",
			row.Name, row.Jobs, row.NsPerOp, row.JobsPerSec)
		snap.Sim = append(snap.Sim, row)
	}
	return snap
}

// speedups pairs the micro rows by (name, steps) and derives the
// linear-over-indexed ratios.
func speedups(rows []micro) []speedup {
	ns := make(map[string]int64, len(rows))
	for _, m := range rows {
		ns[fmt.Sprintf("%s/%s/%d", m.Name, m.Impl, m.Steps)] = m.NsPerOp
	}
	var out []speedup
	for _, name := range []string{"earliestfit", "alloc"} {
		for _, steps := range microSizes {
			idx := ns[fmt.Sprintf("%s/indexed/%d", name, steps)]
			lin := ns[fmt.Sprintf("%s/linear/%d", name, steps)]
			if idx > 0 && lin > 0 {
				out = append(out, speedup{Name: name, Steps: steps, Ratio: float64(lin) / float64(idx)})
			}
		}
	}
	return out
}

// scaling returns the large-over-small end-to-end throughput ratio: how
// much of the 1k-job rate survives at 10k jobs. A profile that degrades
// super-linearly with schedule size drags this down.
func scaling(rows []simRow) (float64, bool) {
	rate := make(map[int]float64, len(rows))
	for _, r := range rows {
		rate[r.Jobs] = r.JobsPerSec
	}
	small, large := rate[simJobs[0]], rate[simJobs[len(simJobs)-1]]
	if small <= 0 || large <= 0 {
		return 0, false
	}
	return large / small, true
}

// compare gates a fresh run against the baseline: every speedup ratio
// at gateSteps or larger must hold to within maxRegression of its baseline
// (and meet the absolute floor at floorSteps), and the end-to-end
// throughput scaling must not collapse. Smaller rows print for context but
// never fail the build.
func compare(base, fresh snapshot) int {
	baseline := make(map[string]float64, len(base.Speedups))
	for _, s := range base.Speedups {
		baseline[fmt.Sprintf("%s/%d", s.Name, s.Steps)] = s.Ratio
	}
	bad := 0
	for _, s := range fresh.Speedups {
		key := fmt.Sprintf("%s/%d", s.Name, s.Steps)
		if s.Steps < gateSteps {
			fmt.Fprintf(os.Stderr, "benchsim: %-18s speedup %.2fx (not gated below %d steps)\n", key, s.Ratio, gateSteps)
			continue
		}
		limit := 0.0
		if b, ok := baseline[key]; ok {
			limit = b * (1 - maxRegression)
		} else {
			fmt.Fprintf(os.Stderr, "benchsim: %s: no baseline row, floor only\n", key)
		}
		if s.Steps == floorSteps && limit < floorRatio {
			limit = floorRatio
		}
		status := "ok"
		if s.Ratio < limit {
			status = "REGRESSION"
			bad++
		}
		fmt.Fprintf(os.Stderr, "benchsim: %-18s speedup %.2fx (limit %.2fx): %s\n", key, s.Ratio, limit, status)
	}
	if fs, ok := scaling(fresh.Sim); ok {
		limit := 0.0
		if bs, bok := scaling(base.Sim); bok {
			limit = bs * (1 - maxRegression)
		}
		status := "ok"
		if fs < limit {
			status = "REGRESSION"
			bad++
		}
		fmt.Fprintf(os.Stderr, "benchsim: sim scaling %d->%d jobs %.2f (limit %.2f): %s\n",
			simJobs[0], simJobs[len(simJobs)-1], fs, limit, status)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchsim: %d performance regression(s) beyond %.0f%%\n", bad, maxRegression*100)
		return 1
	}
	return 0
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsim:", err)
		os.Exit(1)
	}
}
