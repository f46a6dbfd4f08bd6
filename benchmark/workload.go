package main

import (
	"fmt"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// pinnedSeed is the paper pipeline's seed. Every timed job set is drawn
// with it, whatever -seed says: redrawing a 10,000-job set moves its
// cost by up to 8x (CTC@0.8 sets drawn from seeds 1..5 take 0.34 s to
// 2.87 s each), which would bury the 10% regressions this benchmark
// exists to catch. -seed instead moves the time origin of the pinned
// sets — a different input with provably the same schedule — and draws
// the fresh job set of the untimed correctness check (see oracle.go).
const pinnedSeed = 2004

// schedulerName is the scheduler of every single-driver measurement: the
// paper's contribution, and dynpd's default.
const schedulerName = "dynP/SJF-preferred"

func newDriver() *sim.DynP { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }

type kind int

const (
	kindSim   kind = iota // sim.Run over every job set, one goroutine
	kindSweep             // experiment.Run over models x shrinks x paper schedulers, then the tables
	kindWire              // a dynpd subprocess fed the concatenated job sets over TCP
)

// spec is one workload's shape. Every workload has job sets, so every
// layer can be measured on every workload: a traced run drives the
// simulator layers over the sets, the sweep layers over the models, and
// the online ladder over the first ladderJobs jobs — at full size for
// the layers the workload exists to stress, at probe size for the rest.
type spec struct {
	name    string
	kind    kind
	why     string
	models  []workload.Model
	shrinks []float64
	sets    int // per model
	jobs    int // per set

	traceSets  int // job sets the simulator-layer trace covers
	ladderJobs int // jobs replayed through the online ladder in a traced run
	probeSets  int // sweep-layer probe size for workloads that are not sweeps
	probeJobs  int
}

var specs = []spec{
	{
		name: "sim-light", kind: kindSim,
		why:    "LANL at load 1.0: queues of ~7 jobs, so per-event fixed costs (eventq, engine, base profile, memo checks) are ~30% of wall; placement work should not show here",
		models: []workload.Model{workload.LANL}, shrinks: []float64{1.0}, sets: 10, jobs: 10000,
		traceSets: 10, ladderJobs: 2000, probeSets: 2, probeJobs: 500,
	},
	{
		name: "sim-heavy", kind: kindSim,
		why:    "CTC at shrink 0.8: queues of ~120 jobs on average and up to 340 on 430 processors, so >95% of wall is candidate placement inside Driver.Plan; engine and eventq work should not show here",
		models: []workload.Model{workload.CTC}, shrinks: []float64{0.8}, sets: 2, jobs: 10000,
		traceSets: 2, ladderJobs: 2000, probeSets: 2, probeJobs: 500,
	},
	{
		name: "sweep-paper", kind: kindSweep,
		why:    "what a user of the reproduction runs: four traces x three shrinks x the five paper schedulers on the shard pool, tables rendered; static drivers, unpooled builders and concurrent pools show here",
		models: workload.Models(), shrinks: []float64{1.0, 0.8, 0.6}, sets: 3, jobs: 1000,
		traceSets: 12, ladderJobs: 1000,
	},
	{
		name: "daemon-wire", kind: kindWire,
		why:    "a journaled dynpd over TCP fed KTH at shrink 0.8 as one deliver per event instant plus status and quote reads: planning is under a tenth of the time, rms bookkeeping, journal, JSON and TCP the rest",
		models: []workload.Model{workload.KTH}, shrinks: []float64{0.8}, sets: 2, jobs: 10000,
		traceSets: 1, ladderJobs: 10000, probeSets: 2, probeJobs: 500,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to a size `go test` can afford while keeping
// every code path: it exists so tier-1 notices API drift in any layer
// the benchmark calls, not to measure anything.
func (s spec) smoke() spec {
	s.models = s.models[:min(len(s.models), 2)] // each model costs ~0.7 s of generator calibration
	s.sets = min(s.sets, 2)
	s.jobs = min(s.jobs, 300)
	s.traceSets = min(s.traceSets, 2)
	s.ladderJobs = min(s.ladderJobs, 200)
	s.probeSets, s.probeJobs = min(s.probeSets, 1), min(s.probeJobs, 150)
	return s
}

// timeOrigin is the seed-drawn shift applied to every submission time.
func timeOrigin(seed uint64) int64 { return rng.New(seed).Derive(0x6f726967696e).Int63n(1 << 20) }

// translate returns a copy of the set submitted offset seconds later.
// The planner only ever uses time differences, so the schedule is the
// same schedule shifted by offset — which the oracle checks.
func translate(s *job.Set, offset int64) *job.Set {
	out := &job.Set{Name: s.Name, Machine: s.Machine, Jobs: make([]*job.Job, len(s.Jobs))}
	for i, j := range s.Jobs {
		c := *j
		c.Submit += offset
		out.Jobs[i] = &c
	}
	return out
}

// jobSets generates the workload's inputs: per model and shrink, the
// pinned sets, compressed and moved to the seed's time origin. A wire
// workload concatenates each model's sets into one daemon lifetime.
func (s spec) jobSets(offset int64) ([]*job.Set, error) {
	var out []*job.Set
	for _, m := range s.models {
		sets, err := m.GenerateSets(s.sets, s.jobs, pinnedSeed)
		if err != nil {
			return nil, err
		}
		for _, f := range s.shrinks {
			var stream *job.Set
			for _, set := range sets {
				set = set.Shrink(f)
				if s.kind != kindWire {
					out = append(out, translate(set, offset))
				} else if stream == nil {
					stream = set
				} else if stream, err = workload.Concatenate(stream, set, 0); err != nil {
					return nil, err
				}
			}
			if stream != nil {
				out = append(out, translate(stream, offset))
			}
		}
	}
	return out, nil
}
