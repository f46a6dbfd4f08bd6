// Package dynp is a library reproduction of the self-tuning dynP job
// scheduler and its decider mechanisms from
//
//	A. Streit, "Evaluation of an Unfair Decider Mechanism for the
//	Self-Tuning dynP Job Scheduler", IPPS/IPDPS 2004.
//
// dynP is a scheduler for planning-based resource management systems: at
// every scheduling event it computes a full schedule (a start time for
// every waiting job, with implicit backfilling) under each candidate
// policy — FCFS, SJF and LJF — scores the schedules with a performance
// metric, and lets a decider pick the policy to execute. The paper's
// contribution is the unfair "preferred" decider, which sticks to a
// designated policy unless another is strictly better and switches back as
// soon as the preferred policy merely equals the incumbent.
//
// The package is a facade over the implementation packages: the job model
// and workload generators, the availability-profile planner, the discrete
// event simulator, the deciders, the evaluation metrics and the experiment
// harness that regenerates every table and figure of the paper. A typical
// use:
//
//	set, _ := dynp.CTC.Generate(5000, dynp.NewStream(1))
//	res, _ := dynp.Simulate(set.Shrink(0.8), dynp.NewDynPScheduler(dynp.PreferredDecider(dynp.SJF)))
//	fmt.Println(dynp.SLDwA(res), dynp.Utilization(res))
package dynp

import (
	"io"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/metrics"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
	"dynp/internal/swf"
	"dynp/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// Core model types.
type (
	// Job is a rigid parallel batch job (submit, width, estimate,
	// actual run time).
	Job = job.Job
	// JobID identifies a job within one set.
	JobID = job.ID
	// JobSet is a simulation input: a machine size plus jobs sorted by
	// submission time. Use Shrink to scale the offered load the way the
	// paper does.
	JobSet = job.Set
	// Policy is a waiting-queue ordering (FCFS, SJF, LJF, ...).
	Policy = policy.Policy
	// Stream is a deterministic random number stream.
	Stream = rng.Stream
)

// The built-in scheduling policies. Each is a singleton: every registry
// lookup of the name returns a value == the variable, so comparisons and
// map keys behave exactly as the pre-registry enum did.
var (
	FCFS = policy.FCFS // first come, first serve
	SJF  = policy.SJF  // shortest job first
	LJF  = policy.LJF  // longest job first
	SAF  = policy.SAF  // smallest area first (extension)
	LAF  = policy.LAF  // largest area first (extension)
)

// RegisterPolicy adds a custom policy to the registry under its Name, so
// string specs (experiment configs, CLI flags, journal checkpoints)
// resolve to it. Implementations must be comparable value types and Less
// must be a strict total order ending in the TieBreak fallback; see the
// Policy interface contract. Registration alone never perturbs
// scheduling — a registered-but-unused policy is never consulted.
func RegisterPolicy(p Policy) error { return policy.Register(p) }

// RegisterPolicyFamily adds a parameterized policy family: parse is
// offered every looked-up spec that matches no exact registration and
// reports whether it claims the spec. template is the display form shown
// in listings, e.g. "PSBS(a=<alpha>,r=<robust>)".
func RegisterPolicyFamily(template string, parse func(spec string) (Policy, bool, error)) error {
	return policy.RegisterFamily(template, parse)
}

// ParsePolicy resolves a policy name or family spec ("SJF",
// "PSBS(a=0.5,r=2)") through the registry. Unknown names return an error
// listing what is registered.
func ParsePolicy(name string) (Policy, error) { return policy.Lookup(name) }

// PolicyNames lists every registered policy name plus the templates of
// the registered families.
func PolicyNames() []string { return policy.Names() }

// TieBreak is the common final comparison every policy's Less must end
// in: submission time, then job ID. It makes any key-based ordering
// total.
func TieBreak(a, b *Job) bool { return policy.TieBreak(a, b) }

// NewFairSizePolicy returns the built-in PSBS-style fairness-aware
// size-based policy: jobs order by quantizedEstimatedArea +
// alpha*submitTime, where alpha (processors) controls fairness aging and
// robust >= 1 buckets areas to powers of robust so runtime-estimate
// error below that factor cannot reorder jobs. alpha = 0, robust = 1 is
// pure smallest-area-first; large alpha degenerates to FCFS. Specs like
// "PSBS(a=0.5,r=2)" resolve via ParsePolicy.
func NewFairSizePolicy(alpha, robust float64) (Policy, error) {
	return policy.NewFairSize(alpha, robust)
}

// NewStream returns a deterministic random stream for workload generation.
func NewStream(seed uint64) *Stream { return rng.New(seed) }

// Workload models calibrated to the paper's Table 2.
type Model = workload.Model

// The four trace models of the paper's evaluation.
var (
	CTC  = workload.CTC
	KTH  = workload.KTH
	LANL = workload.LANL
	SDSC = workload.SDSC
)

// Models returns the four trace models in the paper's order.
func Models() []Model { return workload.Models() }

// ModelByName looks up a trace model ("CTC", "KTH", "LANL", "SDSC").
func ModelByName(name string) (Model, error) { return workload.ByName(name) }

// Characteristics summarises a job set with the paper's Table 2 statistics.
type Characteristics = workload.Characteristics

// Characterize computes Table 2 statistics for a job set.
func Characterize(s *JobSet) Characteristics { return workload.Characterize(s) }

// PerfectEstimates returns a copy of the set where every estimate equals
// the actual run time — the upper bound of what better user estimates
// could buy.
func PerfectEstimates(s *JobSet) *JobSet { return workload.PerfectEstimates(s) }

// ScaleEstimates returns a copy with every estimate multiplied by factor
// (clamped below at the actual run time).
func ScaleEstimates(s *JobSet, factor float64) (*JobSet, error) {
	return workload.ScaleEstimates(s, factor)
}

// ConcatenateSets appends b after a with the given submission gap,
// building workloads with abrupt phase changes.
func ConcatenateSets(a, b *JobSet, gap int64) (*JobSet, error) {
	return workload.Concatenate(a, b, gap)
}

// Deciders.
type Decider = core.Decider

// SimpleDecider returns the three-if-then-else decider of the earlier dynP
// papers; Table 1 shows its four wrong decisions.
func SimpleDecider() Decider { return core.Simple{} }

// AdvancedDecider returns the fair decider implementing the "correct
// decision" column of the paper's Table 1.
func AdvancedDecider() Decider { return core.Advanced{} }

// PreferredDecider returns the paper's unfair decider with the given
// preferred policy (the paper evaluates SJF).
func PreferredDecider(p Policy) Decider { return core.Preferred{Policy: p} }

// NewDecider resolves a registered decider name: "simple", "advanced",
// "<POLICY>-preferred" (e.g. "SJF-preferred") or any name added with
// RegisterDecider.
func NewDecider(name string) (Decider, error) { return core.NewDecider(name) }

// StatefulDecider is a Decider whose internal state rides along in
// journal checkpoints (see the online RMS): SaveState/RestoreState are
// called by the self-tuner's checkpoint path, keyed by the decider's
// Name.
type StatefulDecider = core.StatefulDecider

// RegisterDecider adds a decider constructor under a fixed name, so
// string specs (CLI flags, daemon configs) resolve to it. The
// constructor runs once per NewDecider call — every scheduler gets a
// fresh instance, as stateful deciders require — and the constructed
// decider's Name must equal the registered name.
func RegisterDecider(name string, make func() Decider) error {
	return core.RegisterDecider(name, make)
}

// RegisterDeciderFamily adds a parameterized decider family, mirroring
// RegisterPolicyFamily.
func RegisterDeciderFamily(template string, parse func(spec string) (Decider, bool, error)) error {
	return core.RegisterDeciderFamily(template, parse)
}

// DeciderNames lists every registered decider name plus the templates of
// the registered families.
func DeciderNames() []string { return core.DeciderNames() }

// DecisionCase classifies one self-tuning decision into the case labels of
// the paper's Table 1 (see core.CaseOf for the partition used).
func DecisionCase(old Policy, fcfs, sjf, ljf float64) string {
	return core.CaseOf(old, fcfs, sjf, ljf)
}

// CaseCount is one row of a Table 1 case histogram over a decision trace.
type CaseCount = core.CaseCount

// ClassifyDecisions builds a Table 1 case histogram from a recorded
// decision trace, connecting the paper's static analysis to observed
// scheduler behaviour.
func ClassifyDecisions(trace []Decision) []CaseCount { return core.ClassifyTrace(trace) }

// DecisionMetric selects the score used to compare the what-if schedules
// of a self-tuning step.
type DecisionMetric = core.Metric

// The decision metrics; MetricSLDwA is the paper's choice.
const (
	MetricSLDwA    = core.MetricSLDwA
	MetricART      = core.MetricART
	MetricARTwW    = core.MetricARTwW
	MetricAWT      = core.MetricAWT
	MetricMakespan = core.MetricMakespan
)

// Schedulers and simulation.
type (
	// Scheduler plans the full schedule at every scheduling event.
	Scheduler = sim.Driver
	// Result is a completed simulation run.
	Result = sim.Result
	// Record is the outcome of a single job.
	Record = sim.Record
	// SelfTuner exposes the dynP self-tuning core for custom drivers.
	SelfTuner = core.SelfTuner
	// SelfTunerStats aggregates the decisions of one run (steps,
	// switches, per-policy choice counts).
	SelfTunerStats = core.Stats
	// Decision is one recorded self-tuning step (requires EnableTrace
	// on the tuner).
	Decision = core.Decision
)

// NewStaticScheduler returns a single-policy scheduler, the paper's
// baseline ("basic scheduling policies").
func NewStaticScheduler(p Policy) Scheduler { return &sim.Static{Policy: p} }

// NewDynPScheduler returns the self-tuning dynP scheduler with the given
// decider, the paper's candidate set {FCFS, SJF, LJF} and the paper's
// decision metric (planned SLDwA).
func NewDynPScheduler(d Decider) Scheduler { return sim.NewDynP(d) }

// NewDynPSchedulerWith returns a dynP scheduler with full control over the
// candidate policies and the decision metric, for ablation studies. A nil
// candidate slice selects the paper's set.
func NewDynPSchedulerWith(candidates []Policy, d Decider, m DecisionMetric) Scheduler {
	return sim.NewDynPWith(candidates, d, m)
}

// NewEASYScheduler returns the queueing-based EASY-backfilling scheduler
// (one reservation for the queue head, aggressive backfilling behind it) —
// the classic contrast to planning-based scheduling discussed in reference
// [6] of the paper. The original EASY orders its queue FCFS.
func NewEASYScheduler(base Policy) Scheduler { return &sim.EASY{Base: base} }

// Simulate runs a job set to completion under the given scheduler.
func Simulate(set *JobSet, s Scheduler) (*Result, error) { return sim.Run(set, s) }

// SimulateMany runs several independent job sets concurrently on the
// shard pool and returns the results in input order. Each run gets a
// fresh scheduler from newScheduler (schedulers carry tuner state);
// workers <= 0 selects all cores. Results are byte-identical to
// sequential Simulate calls with the same factory — the worker count
// decides only the wall clock. Repeated entries run independent replicas.
func SimulateMany(sets []*JobSet, newScheduler func() Scheduler, workers int) ([]*Result, error) {
	return sim.RunParallel(sets, newScheduler, workers)
}

// SimulateVerified additionally re-verifies every schedule against the
// machine state (slower; for debugging and tests).
func SimulateVerified(set *JobSet, s Scheduler) (*Result, error) {
	return sim.Run(set, s, sim.WithVerify())
}

// Structured observation: both the simulator and the online RMS run on
// one scheduling engine (internal/engine), which reports every
// transition — submissions, starts, completions, kills, and one plan
// event per scheduling step with queue depth, active policy, Table-1
// decision case and planning latency — to attached observers.
type (
	// EngineEvent is one observed scheduling-engine transition.
	EngineEvent = engine.Event
	// EngineEventKind classifies an EngineEvent.
	EngineEventKind = engine.EventKind
	// EngineObserver receives every engine transition, synchronously,
	// in order.
	EngineObserver = engine.Observer
	// SimOption configures a SimulateWith run.
	SimOption = sim.Option
)

// The engine event kinds.
const (
	EventSubmit       = engine.EventSubmit
	EventStart        = engine.EventStart
	EventFinish       = engine.EventFinish
	EventKill         = engine.EventKill
	EventJobFail      = engine.EventJobFail
	EventCancel       = engine.EventCancel
	EventProcsFail    = engine.EventProcsFail
	EventProcsRestore = engine.EventProcsRestore
	EventPlan         = engine.EventPlan
)

// ObserverFunc adapts a function to the EngineObserver interface.
func ObserverFunc(f func(EngineEvent)) EngineObserver { return engine.ObserverFunc(f) }

// WithObserver attaches an engine observer to a simulation run.
func WithObserver(o EngineObserver) SimOption { return sim.WithObserver(o) }

// WithVerify re-verifies every schedule against the machine state
// (slower; for debugging and tests).
func WithVerify() SimOption { return sim.WithVerify() }

// WithQueueProbe invokes probe after every scheduling event with the
// current time and waiting-queue length, for queue-dynamics analyses.
func WithQueueProbe(probe func(now int64, queued int)) SimOption {
	return sim.WithQueueProbe(probe)
}

// SimulateWith runs a job set to completion under the given scheduler
// with per-run options (observers, verification, queue probes).
func SimulateWith(set *JobSet, s Scheduler, opts ...SimOption) (*Result, error) {
	return sim.Run(set, s, opts...)
}

// Evaluation metrics (paper, Section 4.1).

// SLDwA returns the average slowdown weighted by job area.
func SLDwA(r *Result) float64 { return metrics.SLDwA(r) }

// BoundedSLDwA returns the area-weighted bounded slowdown with threshold
// tau seconds (the paper cites tau = 60).
func BoundedSLDwA(r *Result, tau int64) float64 { return metrics.BoundedSLDwA(r, tau) }

// Utilization returns the machine utilization in [0, 1].
func Utilization(r *Result) float64 { return metrics.Utilization(r) }

// ART returns the average response time in seconds.
func ART(r *Result) float64 { return metrics.ART(r) }

// ARTwW returns the average response time weighted by job width.
func ARTwW(r *Result) float64 { return metrics.ARTwW(r) }

// AWT returns the average waiting time in seconds.
func AWT(r *Result) float64 { return metrics.AWT(r) }

// SWF trace interchange.

// SWFReadOptions controls ReadSWF.
type SWFReadOptions = swf.ReadOptions

// ReadSWF parses a Standard Workload Format trace (Parallel Workloads
// Archive) into a job set.
func ReadSWF(r io.Reader, opts SWFReadOptions) (*JobSet, error) { return swf.Read(r, opts) }

// WriteSWF emits a job set in Standard Workload Format.
func WriteSWF(w io.Writer, set *JobSet) error { return swf.Write(w, set) }
