// Package core implements the paper's contribution: the self-tuning dynP
// scheduling step and its decider mechanisms. At every scheduling event the
// self-tuner builds one full what-if schedule per candidate policy, scores
// each schedule with a performance metric (lower is better), and asks a
// Decider which policy to activate.
//
// Three deciders are provided:
//
//   - Simple: the minimum-value policy with a fixed FCFS > SJF > LJF
//     tie-break. Table 1 of the paper shows it decides wrongly whenever
//     ties involve the currently active policy (cases 1, 6b, 8c, 10c).
//   - Advanced (fair): the "correct decision" column of Table 1 — on ties
//     the old policy wins if it is among the minima.
//   - Preferred (unfair, the paper's new mechanism): a designated policy is
//     kept unless another policy is strictly better, and is switched back
//     to as soon as it is merely equal to the active one.
package core

import (
	"math"

	"dynp/internal/policy"
)

// Tolerance is the relative tolerance under which two schedule scores are
// considered equal. Identical schedules produce bit-identical floats, but
// distinct orderings can reach equal plans through different float
// summation orders, so a small relative band is used.
const Tolerance = 1e-9

// approxEqual reports whether two scores are equal within Tolerance.
// Non-finite values need explicit handling, and both branches are
// byte-neutral for the finite scores real schedules produce: equal
// infinities compare equal (their difference is NaN, which fails every
// tolerance test), while an infinity never ties anything else (the
// relative band Tolerance*Inf would otherwise swallow every finite
// value).
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= Tolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Decider chooses the next active policy from per-policy schedule scores.
type Decider interface {
	// Name returns a short identifier used in result tables.
	Name() string
	// Decide returns the policy to activate. candidates and values are
	// parallel slices ordered by the canonical candidate order (FCFS,
	// SJF, LJF for the paper's configuration); lower values are better;
	// old is the currently active policy. Both slices are the tuner's
	// and values is rewritten at its next step: a decider that keeps
	// scores past the call copies them.
	Decide(old policy.Policy, candidates []policy.Policy, values []float64) policy.Policy
}

// norm orders NaN scores deterministically last (treated as +Inf): a
// NaN compares false to everything, so without the normalisation a
// single NaN as values[0] would poison the minimum and no candidate would
// tie it, making the deciders report "no candidates" for a scoring
// problem.
func norm(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// minimum returns the smallest normalised value, the one every candidate
// within Tolerance of it ties. The deciders read the ties off it in
// place, so a decision allocates nothing.
func minimum(who string, values []float64) float64 {
	if len(values) == 0 {
		panic("core: " + who + ".Decide with no candidates")
	}
	min := norm(values[0])
	for _, v := range values[1:] {
		if norm(v) < min {
			min = norm(v)
		}
	}
	return min
}

// firstTie returns the first candidate index whose value ties min. One
// always does after NaN normalisation; the panic is a backstop.
func firstTie(who string, values []float64, min float64) int {
	for i, v := range values {
		if approxEqual(norm(v), min) {
			return i
		}
	}
	panic("core: " + who + ".Decide with unorderable values")
}

// ties reports whether policy p is a candidate whose value ties min.
func ties(p policy.Policy, candidates []policy.Policy, values []float64, min float64) bool {
	for i, v := range values {
		if candidates[i] == p && approxEqual(norm(v), min) {
			return true
		}
	}
	return false
}

// Simple is the three-if-then-else decider of [21]: it returns the policy
// with the minimum value and resolves ties by candidate order, ignoring
// the active policy entirely.
type Simple struct{}

// Name implements Decider.
func (Simple) Name() string { return "simple" }

// Decide implements Decider.
func (Simple) Decide(_ policy.Policy, candidates []policy.Policy, values []float64) policy.Policy {
	return candidates[firstTie("Simple", values, minimum("Simple", values))]
}

// Advanced is the fair decider: the unique minimum wins; on ties the old
// policy is kept when it is among the minima, otherwise the first minimal
// candidate in canonical order is chosen. This reproduces the "correct
// decision" column of Table 1 exactly.
type Advanced struct{}

// Name implements Decider.
func (Advanced) Name() string { return "advanced" }

// Decide implements Decider.
func (Advanced) Decide(old policy.Policy, candidates []policy.Policy, values []float64) policy.Policy {
	min := minimum("Advanced", values)
	if ties(old, candidates, values, min) {
		return old
	}
	return candidates[firstTie("Advanced", values, min)]
}

// Preferred is the paper's unfair decider. The preferred policy stays
// active unless another policy is strictly better; when a non-preferred
// policy is active, equal performance already suffices to switch back to
// the preferred one. When neither the preferred nor the old policy ties
// the minimum, the first minimal candidate in canonical order is chosen.
type Preferred struct {
	Policy policy.Policy // the preferred policy, SJF in the paper's evaluation
}

// Name implements Decider.
func (p Preferred) Name() string { return p.Policy.Name() + "-preferred" }

// Decide implements Decider.
func (p Preferred) Decide(old policy.Policy, candidates []policy.Policy, values []float64) policy.Policy {
	min := minimum("Preferred", values)
	if ties(p.Policy, candidates, values, min) {
		return p.Policy
	}
	if ties(old, candidates, values, min) {
		return old
	}
	return candidates[firstTie("Preferred", values, min)]
}
