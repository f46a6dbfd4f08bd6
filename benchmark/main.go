// Command benchmark is the repository's one performance benchmark: four
// workloads (sim-light, sim-heavy, sweep-paper, daemon-wire), a handful
// of end-to-end metrics measured with tracing off, and a separate
// traced run that attributes the time to layers. BENCHMARK.json at the
// repository root is its contract; README.md in this directory is its
// manual. Run it from the repository root:
//
//	go run ./benchmark -workload sim-heavy -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -workload all                 # every workload, untraced
//	go run ./benchmark -workload daemon-wire -trace 1 -trace-out spans.json
//	go run ./benchmark -agree                        # two sets of runs, compared
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before
// it is a report with sample counts and the environment. The exit code
// is non-zero when any result was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// metricDef is one line of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, measured
// with tracing off. Every workload reports every one of them; what an
// "operation" is differs by workload (README.md, "End-to-end metrics").
//
// The timing bounds are as wide as the contract allows because the
// hosts this runs on drift by several percent over minutes (README.md,
// "How steady it is"); allocation volume repeats almost exactly, so its
// bound is tight.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_jobs_per_s", "1/s", "higher", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_pass", "MiB", "lower", 0.05},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{Name: "sim.self_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.self_us_per_event", Unit: "us", Better: "lower"},
	{Name: "eventq.us_per_event", Unit: "us", Better: "lower"},
	{Name: "core.plan_share", Unit: "ratio", Better: "lower"},
	{Name: "core.plan_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_calls", Unit: "count", Better: "lower"},
	{Name: "core.plan_us_by_queue.q1", Unit: "us", Better: "lower"},
	{Name: "core.plan_us_by_queue.q2", Unit: "us", Better: "lower"},
	{Name: "core.plan_us_by_queue.q3", Unit: "us", Better: "lower"},
	{Name: "core.plan_us_by_queue.q4", Unit: "us", Better: "lower"},
	{Name: "core.fastpath_share", Unit: "ratio", Better: "higher"},
	{Name: "core.allocs_per_plan", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_plan", Unit: "B", Better: "lower"},
	{Name: "plan.base_us", Unit: "us", Better: "lower"},
	{Name: "plan.base_share", Unit: "ratio", Better: "lower"},
	{Name: "policy.order_us", Unit: "us", Better: "lower"},
	{Name: "policy.order_share", Unit: "ratio", Better: "lower"},
	{Name: "plan.place_us", Unit: "us", Better: "lower"},
	{Name: "plan.place_share", Unit: "ratio", Better: "lower"},
	{Name: "plan.place_ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "profile.place_ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "profile.clone_us", Unit: "us", Better: "lower"},
	{Name: "profile.steps_mean", Unit: "count", Better: "lower"},
	{Name: "profile.steps_max", Unit: "count", Better: "lower"},
	{Name: "core.score_us", Unit: "us", Better: "lower"},
	{Name: "core.decide_us", Unit: "us", Better: "lower"},
	{Name: "engine.queue_mean", Unit: "count", Better: "lower"},
	{Name: "engine.queue_max", Unit: "count", Better: "lower"},
	{Name: "engine.running_mean", Unit: "count", Better: "lower"},
	{Name: "engine.events", Unit: "count", Better: "lower"},
	{Name: "shard.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "experiment.static_share", Unit: "ratio", Better: "lower"},
	{Name: "rms.deliver_us", Unit: "us", Better: "lower"},
	{Name: "rms.online_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rms.journal_us_per_event", Unit: "us", Better: "lower"},
	{Name: "rms.journal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "rms.journal_segments", Unit: "count", Better: "lower"},
	{Name: "rms.checkpoint_bytes_last", Unit: "B", Better: "lower"},
	{Name: "rms.server_us", Unit: "us", Better: "lower"},
	{Name: "wire.codec_us", Unit: "us", Better: "lower"},
	{Name: "wire.tcp_us", Unit: "us", Better: "lower"},
	{Name: "rms.status_bytes_mean", Unit: "B", Better: "lower"},
	{Name: "rms.quote_us", Unit: "us", Better: "lower"},
	{Name: "rms.quote_us_by_queue.q1", Unit: "us", Better: "lower"},
	{Name: "rms.quote_us_by_queue.q2", Unit: "us", Better: "lower"},
	{Name: "rms.quote_us_by_queue.q3", Unit: "us", Better: "lower"},
	{Name: "rms.quote_us_by_queue.q4", Unit: "us", Better: "lower"},
	{Name: "rms.restart_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rms.daemon_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "wire.deliver_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.deliver_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.deliver_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.status_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.status_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.quote_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.quote_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default.
const runSeconds = 10

// contract renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift apart (a test compares them).
func contract() any {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var workloads []workloadDef
	for _, s := range specs {
		workloads = append(workloads, workloadDef{s.name, s.why})
	}
	return map[string]any{
		"command":     []string{"go", "run", "./benchmark"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of the contract.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcomeOf selects the contract's metrics from a measurement; one the
// run did not produce is a bug in the benchmark and fails the run.
func outcomeOf(m *measurement, defs []metricDef) (outcome, error) {
	out := outcome{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// environment is what a reader needs to judge whether two result lines
// are comparable.
func environment() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"numcpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "workdir_fs": fsType("."),
	}
}

// run measures one workload and prints its report and result lines. It
// returns the result so -agree can compare two of them.
func run(s spec, o options, traced bool, traceOut string) (outcome, error) {
	var m *measurement
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		m, err = s.trace(o, traceOut)
	} else {
		m, err = s.measure(o)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", s.name, err)
	}
	for _, e := range m.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: WRONG: %v\n", s.name, e)
	}
	out, err := outcomeOf(m, defs)
	if err != nil {
		return out, fmt.Errorf("%s: %w", s.name, err)
	}
	report := map[string]any{
		"workload": s.name, "seed": o.seed, "traced": traced, "smoke": o.smoke,
		"op_fail_share": float64(m.failed) / float64(max(m.attempted, 1)),
		"values":        m.values, "samples": m.samples, "notes": m.notes,
		"env": environment(),
	}
	if runtime.GOMAXPROCS(0) == 1 && s.kind != kindSim {
		report["warning"] = singleCPU
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", s.name, singleCPU)
	}
	for _, v := range []any{map[string]any{"report": report}, out} {
		line, err := json.Marshal(v)
		if err != nil {
			return out, err
		}
		fmt.Println(string(line))
	}
	return out, nil
}

const singleCPU = "GOMAXPROCS=1: the sweep's workers and the daemon's client share one core, so this run measures the OS scheduler; do not record it"

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: sim-light, sim-heavy, sweep-paper, daemon-wire, or all")
		seed     = flag.Uint64("seed", pinnedSeed, "input seed: moves the time origin of the pinned job sets and draws the fresh set of the correctness check")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase of an untraced run")
		passes   = flag.Int("passes", 0, "run exactly this many timed passes instead of -seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans to this file as JSON")
		agree    = flag.Bool("agree", false, "run the chosen workloads twice and compare every end-to-end metric against its bound")
		smoke    = flag.Bool("smoke", false, "tiny inputs and an in-process server instead of dynpd: exercises every code path, measures nothing")
		update   = flag.Bool("update-expected", false, "record benchmark/expected/*.json from verified runs instead of checking against them")
		describe = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *describe {
		data, err := json.MarshalIndent(contract(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: -trace takes 0 or 1; unexpected arguments %v", flag.Args()))
	}
	chosen := specs
	if *workload != "all" {
		s, err := specByName(*workload)
		if err != nil {
			fatal(err)
		}
		chosen = []spec{s}
	}
	o := options{seed: *seed, seconds: *seconds, passes: *passes, smoke: *smoke, update: *update, workDir: defaultWorkDir}
	if *smoke {
		for i := range chosen {
			chosen[i] = chosen[i].smoke()
		}
		if o.passes == 0 {
			o.passes = 1
		}
	}
	// Recording modes refuse a single core outright; a single gated run
	// only warns, so a one-core CI host can still compare two commits.
	if runtime.GOMAXPROCS(0) == 1 && !*smoke && (*agree || len(chosen) > 1) {
		fatal(fmt.Errorf("refusing to record sweep-paper and daemon-wire: %s", singleCPU))
	}

	ok := true
	if *agree {
		ok = agreement(chosen, o)
	} else {
		for _, s := range chosen {
			out, err := run(s, o, *trace == 1, *traceOut)
			if err != nil {
				fatal(err)
			}
			ok = ok && out.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
