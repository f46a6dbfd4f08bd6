// Package adaptive provides an observer-driven decider shell for the
// self-tuning dynP scheduler: a core.Decider that watches the scheduling
// engine's event stream (queue depth, Table-1 decision case) and switches
// its decision rule by observed load.
//
// Under calm conditions the shell delegates to an inner decider (the
// paper's advanced decider by default). When the post-launch backlog has
// stayed at or above Depth for Patience consecutive planning events, the
// shell enters pressure mode and decides like an unfair preferred-policy
// decider toward its fairness policy — the paper's unfair mechanism,
// engaged only when backlog actually builds up. It leaves pressure mode
// again after Patience consecutive shallow observations (hysteresis, so
// a queue oscillating around the threshold does not thrash the rule).
//
// The Table-1 case histogram is folded into the same observed state. It
// is excluded from the decision rule, but rides SaveState into
// checkpoints and is exposed via Snapshot for monitoring. Nothing
// wall-clock is kept: a checkpoint must replay byte for byte from the
// journal, and planning latency is served by the daemon's event trace
// (the metrics op).
//
// The shell is registered as the decider family
// "adaptive(<POLICY>,depth=<n>,patience=<n>)", so any component that
// resolves deciders by name (scheduler specs, dynpd configuration) can
// construct one for any registered policy. For the fairness policy to be
// electable, it must be in the tuner's candidate set; see
// experiment.AdaptiveSpec.
package adaptive

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/policy"
)

// Template is the registered decider-family template.
const Template = "adaptive(<POLICY>,depth=<n>,patience=<n>)"

// Decider is the observer-driven shell. It implements core.Decider,
// core.StatefulDecider and engine.Observer. The zero value is not
// usable; construct with New.
type Decider struct {
	fair     policy.Policy // preferred under pressure
	inner    core.Decider  // decision rule while calm
	depth    int           // backlog threshold (post-launch waiting jobs)
	patience int           // consecutive observations to enter/leave pressure
	name     string        // canonical, precomputed

	obs observed
}

// observed is the decider's accumulated view of the engine's event
// stream. It is the unit of checkpointed state.
type observed struct {
	Pressure  bool             `json:"pressure,omitempty"`
	Deep      int              `json:"deep,omitempty"`      // consecutive deep plan events
	Calm      int              `json:"calm,omitempty"`      // consecutive shallow plan events
	Plans     int64            `json:"plans,omitempty"`     // plan events observed
	Decisions int64            `json:"decisions,omitempty"` // Decide calls served
	Unfair    int64            `json:"unfair,omitempty"`    // decisions taken in pressure mode
	Cases     map[string]int64 `json:"cases,omitempty"`     // Table-1 case histogram
}

// Snapshot is the exported monitoring view of the observed state.
type Snapshot struct {
	Pressure  bool
	Plans     int64
	Decisions int64
	Unfair    int64
	Cases     map[string]int64
}

// New returns an adaptive decider preferring fair under pressure. Depth
// is the queue-depth threshold (≥ 1 waiting jobs after launches) and
// patience the number of consecutive planning events on one side of the
// threshold required to change mode (≥ 1).
func New(fair policy.Policy, depth, patience int) (*Decider, error) {
	if fair == nil {
		return nil, fmt.Errorf("adaptive: nil fairness policy")
	}
	if depth < 1 {
		return nil, fmt.Errorf("adaptive: depth %d must be >= 1", depth)
	}
	if patience < 1 {
		return nil, fmt.Errorf("adaptive: patience %d must be >= 1", patience)
	}
	return &Decider{
		fair:     fair,
		inner:    core.Advanced{},
		depth:    depth,
		patience: patience,
		name:     fmt.Sprintf("adaptive(%s,depth=%d,patience=%d)", fair.Name(), depth, patience),
	}, nil
}

// Must is New, panicking on invalid parameters.
func Must(fair policy.Policy, depth, patience int) *Decider {
	d, err := New(fair, depth, patience)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements core.Decider with the canonical family spelling.
func (d *Decider) Name() string { return d.name }

// Fair returns the policy preferred under pressure.
func (d *Decider) Fair() policy.Policy { return d.fair }

// Decide implements core.Decider: the unfair preferred rule toward the
// fairness policy while under observed pressure, the inner (advanced)
// rule otherwise.
func (d *Decider) Decide(old policy.Policy, candidates []policy.Policy, values []float64) policy.Policy {
	d.obs.Decisions++
	if d.obs.Pressure {
		d.obs.Unfair++
		return core.Preferred{Policy: d.fair}.Decide(old, candidates, values)
	}
	return d.inner.Decide(old, candidates, values)
}

// Observe implements engine.Observer. Only planning events matter: their
// queue depth is the post-launch backlog that drives the mode, and they
// carry the Table-1 case.
func (d *Decider) Observe(ev engine.Event) {
	if ev.Kind != engine.EventPlan {
		return
	}
	d.obs.Plans++
	if ev.Case != "" {
		if d.obs.Cases == nil {
			d.obs.Cases = make(map[string]int64)
		}
		d.obs.Cases[ev.Case]++
	}
	if ev.Queued >= d.depth {
		d.obs.Deep++
		d.obs.Calm = 0
		if d.obs.Deep >= d.patience {
			d.obs.Pressure = true
		}
	} else {
		d.obs.Calm++
		d.obs.Deep = 0
		if d.obs.Calm >= d.patience {
			d.obs.Pressure = false
		}
	}
}

// Snapshot returns the current observed state for monitoring.
func (d *Decider) Snapshot() Snapshot {
	s := Snapshot{
		Pressure:  d.obs.Pressure,
		Plans:     d.obs.Plans,
		Decisions: d.obs.Decisions,
		Unfair:    d.obs.Unfair,
	}
	if len(d.obs.Cases) > 0 {
		s.Cases = make(map[string]int64, len(d.obs.Cases))
		for k, v := range d.obs.Cases {
			s.Cases[k] = v
		}
	}
	return s
}

// SaveState implements core.StatefulDecider: the observed state rides
// tuner checkpoints, so a restored scheduler resumes in the same mode
// with the same streaks.
func (d *Decider) SaveState() ([]byte, error) { return json.Marshal(&d.obs) }

// RestoreState implements core.StatefulDecider.
func (d *Decider) RestoreState(data []byte) error {
	var obs observed
	if err := json.Unmarshal(data, &obs); err != nil {
		return fmt.Errorf("adaptive: state: %w", err)
	}
	d.obs = obs
	return nil
}

func init() {
	core.MustRegisterDeciderFamily(Template, parse)
}

// parse resolves one canonical family spec. The fairness policy name may
// itself contain commas and parentheses (e.g. a PSBS instance), so the
// numeric suffix is split off from the right.
func parse(spec string) (core.Decider, bool, error) {
	body, ok := strings.CutPrefix(spec, "adaptive(")
	if !ok {
		return nil, false, nil
	}
	body, ok = strings.CutSuffix(body, ")")
	if !ok {
		return nil, true, badSpec(spec, "missing closing parenthesis")
	}
	body, patStr, ok := cutLast(body, ",patience=")
	if !ok {
		return nil, true, badSpec(spec, "missing patience")
	}
	polName, depthStr, ok := cutLast(body, ",depth=")
	if !ok {
		return nil, true, badSpec(spec, "missing depth")
	}
	depth, err := strconv.Atoi(depthStr)
	if err != nil {
		return nil, true, badSpec(spec, "depth is not an integer")
	}
	patience, err := strconv.Atoi(patStr)
	if err != nil {
		return nil, true, badSpec(spec, "patience is not an integer")
	}
	fair, err := policy.Lookup(polName)
	if err != nil {
		return nil, true, fmt.Errorf("adaptive: spec %q: %w", spec, err)
	}
	d, err := New(fair, depth, patience)
	if err != nil {
		return nil, true, err
	}
	return d, true, nil
}

func badSpec(spec, why string) error {
	return fmt.Errorf("adaptive: spec %q: %s (want %s)", spec, why, Template)
}

// cutLast splits s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}
