// Package experiment is the evaluation harness: it generates the paper's
// job sets, sweeps shrinking factors and schedulers, aggregates the
// per-set results with the paper's drop-min/max rule, and assembles the
// data behind every table and figure of the evaluation section.
package experiment

import (
	"fmt"
	"strings"

	"dynp/internal/core"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// SchedulerSpec names a scheduler and constructs fresh driver instances:
// dynP drivers carry tuner state, so every simulation run needs its own.
type SchedulerSpec struct {
	Name string
	New  func() sim.Driver
}

// StaticSpec returns the spec of a basic single-policy scheduler.
func StaticSpec(p policy.Policy) SchedulerSpec {
	return SchedulerSpec{
		Name: p.Name(),
		New:  func() sim.Driver { return &sim.Static{Policy: p} },
	}
}

// DynPSpec returns the spec of a self-tuning dynP scheduler with the given
// decider and the paper's decision metric. The decider instance is shared
// across the runs the spec constructs, so it must be stateless; resolve
// stateful deciders by name through ParseSpec instead, which builds a
// fresh instance per run.
func DynPSpec(d core.Decider) SchedulerSpec {
	return SchedulerSpec{
		Name: "dynP/" + d.Name(),
		New:  func() sim.Driver { return sim.NewDynP(d) },
	}
}

// newDynPFor builds a dynP driver for the decider. A decider that
// prefers a policy outside the paper's candidate set and says so (by
// exposing Fair, like the adaptive shell) gets that policy appended to
// the candidates — the tuner refuses decisions outside the set, so the
// preferred policy must be electable.
func newDynPFor(d core.Decider) sim.Driver {
	if f, ok := d.(interface{ Fair() policy.Policy }); ok {
		fair := f.Fair()
		in := false
		for _, c := range policy.Candidates {
			if c == fair {
				in = true
				break
			}
		}
		if !in {
			cands := append(append([]policy.Policy{}, policy.Candidates...), fair)
			return sim.NewDynPWith(cands, d, core.MetricSLDwA).SetLabel("dynP/" + d.Name())
		}
	}
	return sim.NewDynP(d)
}

// DynPMetricSpec returns a dynP spec with an explicit decision metric, for
// the decision-metric ablation.
func DynPMetricSpec(d core.Decider, m core.Metric) SchedulerSpec {
	return SchedulerSpec{
		Name: "dynP/" + d.Name() + "/" + m.String(),
		New:  func() sim.Driver { return sim.NewDynPWith(nil, d, m) },
	}
}

// EASYSpec returns the spec of the queueing-based EASY-backfilling
// scheduler (reference [6] of the paper contrasts queueing and planning).
func EASYSpec(base policy.Policy) SchedulerSpec {
	name := "EASY"
	if base != policy.FCFS {
		name = "EASY/" + base.Name()
	}
	return SchedulerSpec{
		Name: name,
		New:  func() sim.Driver { return &sim.EASY{Base: base} },
	}
}

// ParseSpec converts a scheduler name into a spec. Accepted forms: a
// policy name ("FCFS", "SJF", "LJF", ...), "dynP/<decider>" with decider
// one of "simple", "advanced", "<POLICY>-preferred", or "EASY" /
// "EASY/<POLICY>" for the queueing baseline.
func ParseSpec(name string) (SchedulerSpec, error) {
	if p, err := policy.Lookup(name); err == nil {
		return StaticSpec(p), nil
	}
	if rest, ok := strings.CutPrefix(name, "dynP/"); ok {
		d, err := core.NewDecider(rest)
		if err != nil {
			return SchedulerSpec{}, fmt.Errorf("experiment: %w", err)
		}
		return SchedulerSpec{
			Name: "dynP/" + d.Name(),
			New: func() sim.Driver {
				// Fresh decider per run: registry deciders may be
				// stateful, and concurrent sweep runs must not share.
				nd, err := core.NewDecider(rest)
				if err != nil { // registry mutated since parse; unreachable in practice
					panic(fmt.Sprintf("experiment: decider %q vanished: %v", rest, err))
				}
				return newDynPFor(nd)
			},
		}, nil
	}
	if name == "EASY" {
		return EASYSpec(policy.FCFS), nil
	}
	if rest, ok := strings.CutPrefix(name, "EASY/"); ok {
		p, err := policy.Lookup(rest)
		if err != nil {
			return SchedulerSpec{}, fmt.Errorf("experiment: %w", err)
		}
		return EASYSpec(p), nil
	}
	return SchedulerSpec{}, fmt.Errorf("experiment: unknown scheduler %q", name)
}

// PaperSchedulers returns the five schedulers of the paper's evaluation:
// the three basic policies, dynP with the advanced decider, and dynP with
// the SJF-preferred decider.
func PaperSchedulers() []SchedulerSpec {
	return []SchedulerSpec{
		StaticSpec(policy.FCFS),
		StaticSpec(policy.SJF),
		StaticSpec(policy.LJF),
		DynPSpec(core.Advanced{}),
		DynPSpec(core.Preferred{Policy: policy.SJF}),
	}
}

// PaperShrinks returns the paper's shrinking factors 1.0 down to 0.6.
func PaperShrinks() []float64 { return []float64{1.0, 0.9, 0.8, 0.7, 0.6} }
