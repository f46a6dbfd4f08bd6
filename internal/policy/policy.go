// Package policy defines the scheduling policies the dynP scheduler can
// switch between: the paper's three candidates FCFS, SJF and LJF, two
// extension policies (shortest/largest estimated area) used by the
// ablation experiments, and — since the registry refactor — any
// user-registered ordering.
//
// A policy is an ordering of the waiting queue; the planning scheduler
// places jobs at their earliest feasible start time in that order. The
// ordering contract is strict: Less must be a total order over distinct
// jobs (use TieBreak to fall back to submission time and job ID), because
// the incrementally spliced order views (see Views) and the planner's
// stable sorts are only byte-equivalent when every pair of jobs orders
// the same way everywhere.
//
// Policies are registered by name (see Register/Lookup); the five
// built-ins are pre-registered and their values compare identical across
// lookups, so existing code that switches on policy.FCFS keeps working.
package policy

import (
	"fmt"
	"slices"

	"dynp/internal/job"
)

// Policy is a waiting-queue ordering.
//
// Implementations must be comparable value types (no slice, map or
// function fields): Policy values are used as map keys and compared with
// == throughout the scheduler, and Register refuses non-comparable
// implementations. Less must be a strict total order over jobs with
// distinct IDs — deterministic, antisymmetric and transitive — ending in
// the TieBreak fallback so no distinct pair is unordered. Name must be
// stable: it keys serialized tuner state, journal checkpoints and result
// tables.
type Policy interface {
	// Name returns the policy's stable identifier, e.g. "SJF".
	Name() string
	// Less reports whether job a precedes job b under the policy.
	Less(a, b *job.Job) bool
}

// builtin implements the five built-in policies. The type is unexported
// and its values are created only below, so an invalid builtin cannot be
// constructed from the outside — configuration paths go through Lookup,
// which fails on unknown names instead of producing a value whose Less
// would panic mid-plan.
type builtin uint8

const (
	bFCFS builtin = iota // first come, first serve
	bSJF                 // shortest (estimated run time) job first
	bLJF                 // longest (estimated run time) job first
	bSAF                 // smallest estimated area first (extension)
	bLAF                 // largest estimated area first (extension)
	numBuiltins
)

var builtinNames = [numBuiltins]string{"FCFS", "SJF", "LJF", "SAF", "LAF"}

// The built-in policies. FCFS, SJF and LJF are the candidate set of the
// paper; SAF and LAF (smallest/largest area first) are ablation
// extensions. Each is a singleton: every lookup of "SJF" returns a value
// == SJF, so the built-ins behave exactly like the closed enum they
// replaced.
var (
	FCFS Policy = bFCFS
	SJF  Policy = bSJF
	LJF  Policy = bLJF
	SAF  Policy = bSAF
	LAF  Policy = bLAF
)

// Candidates is the policy set of the self-tuning dynP scheduler as used
// throughout the paper.
var Candidates = []Policy{FCFS, SJF, LJF}

// All lists every built-in policy including the extensions.
var All = []Policy{FCFS, SJF, LJF, SAF, LAF}

// Name implements Policy.
func (p builtin) Name() string {
	if p >= numBuiltins {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return builtinNames[p]
}

// String implements fmt.Stringer for debugging output.
func (p builtin) String() string { return p.Name() }

// Less implements Policy. Every built-in falls back to TieBreak, so the
// orderings are total and deterministic.
func (p builtin) Less(a, b *job.Job) bool {
	switch p {
	case bSJF:
		if a.Estimate != b.Estimate {
			return a.Estimate < b.Estimate
		}
	case bLJF:
		if a.Estimate != b.Estimate {
			return a.Estimate > b.Estimate
		}
	case bSAF:
		if aa, ba := a.EstimatedArea(), b.EstimatedArea(); aa != ba {
			return aa < ba
		}
	case bLAF:
		if aa, ba := a.EstimatedArea(), b.EstimatedArea(); aa != ba {
			return aa > ba
		}
	case bFCFS:
		// fall through to the common tie-break
	default:
		// Unreachable: builtin values outside the enum cannot be
		// constructed outside this package.
		panic(fmt.Sprintf("policy: Less on invalid builtin %d", int(p)))
	}
	return TieBreak(a, b)
}

// TieBreak is the common final comparison every policy must end in:
// submission time, then job ID. It makes any key-based ordering total —
// two jobs never share an ID, so TieBreak orients every distinct pair.
func TieBreak(a, b *job.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// Order returns a new slice with the jobs sorted according to p. The
// input slice is not modified. The planning drivers read their orders off
// spliced Views instead; Order is the EASY driver's sort and the
// reference those views are checked against.
func Order(p Policy, jobs []*job.Job) []*job.Job {
	out := append([]*job.Job(nil), jobs...)
	// Less is total over distinct jobs, so "not less" means "greater" for
	// every pair the stable sort compares.
	slices.SortStableFunc(out, func(a, b *job.Job) int {
		switch {
		case a == b:
			return 0
		case p.Less(a, b):
			return -1
		}
		return 1
	})
	return out
}
