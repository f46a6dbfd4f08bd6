// The PSBS-style fairness-aware size-based policy family ("Practical
// Size-Based Scheduling"). Pure size-based orderings (SAF) minimise mean
// slowdown but starve large jobs and are brittle when run-time estimates
// are wrong — exactly the regime our workload models parameterize via
// overestimation factors. This family addresses both knobs:
//
//   - Fairness via virtual time. The ordering key is
//     quantizedArea + alpha*Submit. Aging by waiting time normally needs
//     the current clock, but in a pairwise comparison the now-terms
//     cancel: (area_a - alpha*(now-Submit_a)) < (area_b - ...) iff
//     area_a + alpha*Submit_a < area_b + alpha*Submit_b. alpha is
//     measured in processors: alpha = 8 means 8 processor-seconds of
//     size advantage expire per second a job has waited longer. alpha=0
//     is pure smallest-area-first; alpha -> infinity degenerates to
//     FCFS.
//
//   - Robustness to estimate error via size quantization. With robust
//     r > 1 the estimated area is bucketed to powers of r before entering
//     the key, so two jobs whose estimates differ by less than a factor
//     of r (the typical magnitude of user overestimation) land in the
//     same bucket and order by the fairness/tie-break terms instead of by
//     noise. r = 1 disables quantization.
package policy

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dynp/internal/job"
)

// FairSizeTemplate is the family's spec form as shown in listings.
const FairSizeTemplate = "PSBS(a=<alpha>,r=<robust>)"

// FairSize is a PSBS-style fairness-aware size-based policy. Construct
// with NewFairSize (which validates the parameters) or resolve a spec
// string like "PSBS(a=0.5,r=2)" through Lookup. The zero value is not a
// valid policy.
type FairSize struct {
	alpha  float64 // fairness weight in processors; >= 0
	robust float64 // size quantization base; >= 1 (1 = exact areas)
	name   string  // precomputed: Name() is on the per-decision hot path
}

// NewFairSize returns the family member with the given fairness weight
// (alpha, in processors) and estimate-error robustness (robust, the
// quantization base). alpha must be finite and >= 0; robust finite and
// >= 1.
func NewFairSize(alpha, robust float64) (FairSize, error) {
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha < 0 {
		return FairSize{}, fmt.Errorf("policy: FairSize alpha %v must be finite and >= 0", alpha)
	}
	if math.IsNaN(robust) || math.IsInf(robust, 0) || robust < 1 {
		return FairSize{}, fmt.Errorf("policy: FairSize robust %v must be finite and >= 1", robust)
	}
	return FairSize{alpha: alpha, robust: robust, name: fairSizeName(alpha, robust)}, nil
}

// MustFairSize is NewFairSize, panicking on invalid parameters.
func MustFairSize(alpha, robust float64) FairSize {
	p, err := NewFairSize(alpha, robust)
	if err != nil {
		panic(err)
	}
	return p
}

func fairSizeName(alpha, robust float64) string {
	return fmt.Sprintf("PSBS(a=%g,r=%g)", alpha, robust)
}

// Name implements Policy.
func (f FairSize) Name() string { return f.name }

// String implements fmt.Stringer.
func (f FairSize) String() string { return f.name }

// Alpha returns the fairness weight in processors.
func (f FairSize) Alpha() float64 { return f.alpha }

// Robust returns the size-quantization base.
func (f FairSize) Robust() float64 { return f.robust }

// key computes the virtual-time ordering key. Deterministic: a pure
// float function of the job's immutable fields and the policy's
// parameters, so every comparison of the same pair agrees everywhere
// (sorts, spliced views).
func (f FairSize) key(j *job.Job) float64 {
	area := float64(j.EstimatedArea())
	if f.robust > 1 && area > 0 {
		// Bucket to the nearest power of robust at or below the area.
		area = math.Pow(f.robust, math.Floor(math.Log(area)/math.Log(f.robust)))
	}
	return area + f.alpha*float64(j.Submit)
}

// Less implements Policy: ascending virtual-time key, TieBreak on equal
// keys. Keys are finite for valid jobs, so the order is total.
func (f FairSize) Less(a, b *job.Job) bool {
	if ka, kb := f.key(a), f.key(b); ka != kb {
		return ka < kb
	}
	return TieBreak(a, b)
}

// parseFairSize claims specs of the form "PSBS(a=<float>,r=<float>)".
// The spec must round-trip: it is compared against the constructed
// policy's canonical Name, so serialized names (always produced by Name)
// resolve exactly and a non-canonical spelling like "PSBS(a=0.50,r=2)"
// is rejected with a pointer to the canonical form.
func parseFairSize(spec string) (Policy, bool, error) {
	body, ok := strings.CutPrefix(spec, "PSBS(")
	if !ok {
		return nil, false, nil
	}
	body, ok = strings.CutSuffix(body, ")")
	if !ok {
		return nil, true, fmt.Errorf("malformed PSBS spec (want %s)", FairSizeTemplate)
	}
	parts := strings.Split(body, ",")
	if len(parts) != 2 || !strings.HasPrefix(parts[0], "a=") || !strings.HasPrefix(parts[1], "r=") {
		return nil, true, fmt.Errorf("malformed PSBS spec (want %s)", FairSizeTemplate)
	}
	alpha, err := strconv.ParseFloat(parts[0][len("a="):], 64)
	if err != nil {
		return nil, true, fmt.Errorf("bad alpha: %w", err)
	}
	robust, err := strconv.ParseFloat(parts[1][len("r="):], 64)
	if err != nil {
		return nil, true, fmt.Errorf("bad robust: %w", err)
	}
	p, err := NewFairSize(alpha, robust)
	if err != nil {
		return nil, true, err
	}
	if p.Name() != spec {
		return nil, true, fmt.Errorf("non-canonical PSBS spec (canonical: %s)", p.Name())
	}
	return p, true, nil
}
