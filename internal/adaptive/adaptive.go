// Package adaptive provides a load-driven decider shell for the
// self-tuning dynP scheduler: a core.Decider that hears each step's
// backlog from its tuner (core.BacklogDecider) and switches its decision
// rule by it.
//
// Under calm conditions the shell delegates to an inner decider (the
// paper's advanced decider by default). When the backlog — the jobs of
// the chosen schedule that do not start now — has stayed at or above
// Depth for Patience consecutive steps, the shell enters pressure mode
// and decides like an unfair preferred-policy decider toward its
// fairness policy — the paper's unfair mechanism, engaged only when
// backlog actually builds up. It leaves pressure mode again after
// Patience consecutive shallow steps (hysteresis, so a queue oscillating
// around the threshold does not thrash the rule). In the simulator the
// backlog is the queue depth after the step's launches.
//
// The mode, the streaks and the count of unfair decisions are the
// decider's whole state; it rides SaveState into the tuner's state, so
// checkpoints and quote twins carry it. The tuner's own statistics
// count its decisions and their Table 1 cases.
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
	"dynp/internal/policy"
)

// Template is the registered decider-family template.
const Template = "adaptive(<POLICY>,depth=<n>,patience=<n>)"

// Decider is the load-driven shell. It implements core.Decider,
// core.BacklogDecider and core.StatefulDecider. The zero value is not
// usable; construct with New.
type Decider struct {
	fair     policy.Policy // preferred under pressure
	inner    core.Decider  // decision rule while calm
	depth    int           // backlog threshold (jobs not starting now)
	patience int           // consecutive steps to enter/leave pressure
	name     string        // canonical, precomputed

	st state
}

// state is what the decider has heard of the steps so far. It is the
// unit of checkpointed state.
type state struct {
	Pressure bool  `json:"pressure,omitempty"`
	Deep     int   `json:"deep,omitempty"`   // consecutive deep steps
	Calm     int   `json:"calm,omitempty"`   // consecutive shallow steps
	Unfair   int64 `json:"unfair,omitempty"` // decisions taken in pressure mode
}

// Snapshot is the exported monitoring view of the decider's state.
type Snapshot struct {
	Pressure bool
	Unfair   int64
}

// New returns an adaptive decider preferring fair under pressure. Depth
// is the backlog threshold (≥ 1 jobs not starting now) and patience the
// number of consecutive steps on one side of the threshold required to
// change mode (≥ 1).
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
// fairness policy while under pressure, the inner (advanced) rule
// otherwise.
func (d *Decider) Decide(old policy.Policy, candidates []policy.Policy, values []float64) policy.Policy {
	if d.st.Pressure {
		d.st.Unfair++
		return core.Preferred{Policy: d.fair}.Decide(old, candidates, values)
	}
	return d.inner.Decide(old, candidates, values)
}

// Backlog implements core.BacklogDecider: a step's backlog moves the
// streaks, and a streak as long as the patience changes the mode.
func (d *Decider) Backlog(jobs int) {
	if jobs >= d.depth {
		d.st.Deep++
		d.st.Calm = 0
		if d.st.Deep >= d.patience {
			d.st.Pressure = true
		}
	} else {
		d.st.Calm++
		d.st.Deep = 0
		if d.st.Calm >= d.patience {
			d.st.Pressure = false
		}
	}
}

// Snapshot returns the current state for monitoring.
func (d *Decider) Snapshot() Snapshot {
	return Snapshot{Pressure: d.st.Pressure, Unfair: d.st.Unfair}
}

// SaveState implements core.StatefulDecider: the state rides the tuner's
// state, so a restored scheduler resumes in the same mode with the same
// streaks.
func (d *Decider) SaveState() ([]byte, error) { return json.Marshal(&d.st) }

// RestoreState implements core.StatefulDecider.
func (d *Decider) RestoreState(data []byte) error {
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("adaptive: state: %w", err)
	}
	d.st = st
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
