// Checkpoint serialisation of the self-tuner's decision state: the
// active policy, the aggregated statistics and the decision trace — all
// keyed by policy *name*, so journals survive registry changes and work
// for any registered policy. The lane's order views are deliberately not
// captured: they follow the queue each Plan is handed, so a restored
// tuner's first Plan builds them from the restored queue.
//
// A stateful decider (see StatefulDecider) rides the same encoding: its
// name and opaque state bytes are included when present. The fields are
// omitempty, so checkpoints written with the stateless built-in deciders
// are byte-identical to the pre-registry encoding.
package core

import (
	"encoding/json"
	"fmt"
	"math"

	"dynp/internal/policy"
)

// Scores can be ±Inf (a NaN metric score is canonicalised to +Inf by the
// deciders' ordering), which encoding/json refuses to encode as float64,
// so decisions serialise their values as IEEE-754 bit patterns.
type decState struct {
	Time   int64    `json:"t"`
	Old    string   `json:"old"`
	Chosen string   `json:"chosen"`
	Values []uint64 `json:"values,omitempty"`
}

type tunerState struct {
	Active   string         `json:"active"`
	Steps    int            `json:"steps"`
	Switches int            `json:"switches"`
	Chosen   map[string]int `json:"chosen,omitempty"`
	Last     *decState      `json:"last,omitempty"`
	Trace    []decState     `json:"trace,omitempty"`

	// Stateful-decider round-trip (omitted for the stateless built-ins,
	// keeping pre-registry checkpoints byte-identical).
	Decider      string          `json:"decider,omitempty"`
	DeciderState json.RawMessage `json:"decider_state,omitempty"`
}

func encodeDecision(d Decision) decState {
	out := decState{Time: d.Time, Old: d.Old.Name(), Chosen: d.Chosen.Name()}
	for _, v := range d.Values {
		out.Values = append(out.Values, math.Float64bits(v))
	}
	return out
}

// lookupPolicy resolves a serialized policy name against this tuner's
// own candidate set first — so a custom candidate round-trips even when
// the restoring process registered it under the same name with a
// distinct value — and falls back to the global registry for names that
// are not candidates. Unknown names are refused with an error that says
// which names would have worked; there is no silent fallback.
func (t *SelfTuner) lookupPolicy(name string) (policy.Policy, error) {
	for _, c := range t.candidates {
		if c.Name() == name {
			return c, nil
		}
	}
	if p, err := policy.Lookup(name); err == nil {
		return p, nil
	}
	return nil, fmt.Errorf("policy %q is neither a candidate (%v) nor registered", name, policyNames(t.candidates))
}

func policyNames(ps []policy.Policy) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}

func (t *SelfTuner) decodeDecision(s decState) (Decision, error) {
	old, err := t.lookupPolicy(s.Old)
	if err != nil {
		return Decision{}, fmt.Errorf("core: tuner state: %w", err)
	}
	chosen, err := t.lookupPolicy(s.Chosen)
	if err != nil {
		return Decision{}, fmt.Errorf("core: tuner state: %w", err)
	}
	d := Decision{Time: s.Time, Old: old, Chosen: chosen}
	for _, bits := range s.Values {
		d.Values = append(d.Values, math.Float64frombits(bits))
	}
	return d, nil
}

// MarshalState serialises the tuner's decision state — active policy,
// statistics, last decision, (when tracing) the decision trace, and
// (when the decider is stateful) the decider's name and state — for a
// checkpoint. The encoding is deterministic: the same tuner state always
// yields the same bytes.
func (t *SelfTuner) MarshalState() ([]byte, error) {
	st := tunerState{
		Active:   t.active.Name(),
		Steps:    t.stats.Steps,
		Switches: t.stats.Switches,
	}
	if len(t.stats.Chosen) > 0 {
		st.Chosen = make(map[string]int, len(t.stats.Chosen))
		for name, n := range t.stats.Chosen {
			st.Chosen[name] = n
		}
	}
	if t.hasLast {
		d := encodeDecision(t.last)
		st.Last = &d
	}
	for _, d := range t.trace {
		st.Trace = append(st.Trace, encodeDecision(d))
	}
	if sd, ok := t.decider.(StatefulDecider); ok {
		data, err := sd.SaveState()
		if err != nil {
			return nil, fmt.Errorf("core: tuner state: decider %s: %w", sd.Name(), err)
		}
		st.Decider = sd.Name()
		st.DeciderState = data
	}
	return json.Marshal(st)
}

// UnmarshalState installs a previously marshalled decision state into a
// tuner constructed with the same candidate set, decider and metric.
// Policy names are resolved against the tuner's candidates (then the
// registry); unknown names are refused with a clear error. A serialized
// decider state is handed to the tuner's decider, which must carry the
// same name and implement StatefulDecider. The lane's order views are
// untouched: the next Plan syncs them with the queue it is handed.
func (t *SelfTuner) UnmarshalState(data []byte) error {
	var st tunerState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: tuner state: %w", err)
	}
	active, err := t.lookupPolicy(st.Active)
	if err != nil {
		return fmt.Errorf("core: tuner state: %w", err)
	}
	ok := false
	for _, c := range t.candidates {
		if c == active {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("core: tuner state: active policy %v is not a candidate", active)
	}
	if st.Decider != "" && st.Decider != t.decider.Name() {
		return fmt.Errorf("core: tuner state: saved decider %q does not match configured decider %q", st.Decider, t.decider.Name())
	}
	var restoreDecider StatefulDecider
	if len(st.DeciderState) > 0 {
		sd, ok := t.decider.(StatefulDecider)
		if !ok {
			return fmt.Errorf("core: tuner state: saved state for decider %q, but %T is not stateful", st.Decider, t.decider)
		}
		restoreDecider = sd
	}
	stats := Stats{Steps: st.Steps, Switches: st.Switches, Chosen: make(map[string]int, len(st.Chosen))}
	for name, n := range st.Chosen {
		// The counts stay name-keyed, but every name must still resolve:
		// a checkpoint referencing a policy this process never registered
		// is refused, not silently carried along.
		if _, err := t.lookupPolicy(name); err != nil {
			return fmt.Errorf("core: tuner state: %w", err)
		}
		stats.Chosen[name] = n
	}
	var last Decision
	hasLast := false
	if st.Last != nil {
		if last, err = t.decodeDecision(*st.Last); err != nil {
			return err
		}
		hasLast = true
	}
	var trace []Decision
	for _, s := range st.Trace {
		d, err := t.decodeDecision(s)
		if err != nil {
			return err
		}
		trace = append(trace, d)
	}
	if restoreDecider != nil {
		if err := restoreDecider.RestoreState(st.DeciderState); err != nil {
			return fmt.Errorf("core: tuner state: decider %s: %w", st.Decider, err)
		}
	}

	t.active = active
	t.stats = stats
	t.last, t.hasLast = last, hasLast
	if t.traceOn {
		t.trace = trace
	}
	return nil
}
