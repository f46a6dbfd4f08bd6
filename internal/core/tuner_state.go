// The self-tuner's decision state — the active policy, the aggregated
// statistics, the last decision and the decision trace — as a value,
// TunerState, the one form that state takes outside the tuner. The online
// RMS captures it after every event while quotes are on and a quote twin
// restores it; a checkpoint stores its JSON, keyed by policy *name* so
// journals survive registry changes and work for any registered policy,
// and journal recovery decodes that JSON back into the value and restores
// it the same way. The lane's order views are deliberately not captured:
// they follow the queue each Plan is handed, so a restored tuner's first
// Plan builds them from the restored queue.
//
// A stateful decider (see StatefulDecider) rides along as its name and
// opaque state bytes. The JSON fields are omitempty, so checkpoints
// written with the stateless built-in deciders are byte-identical to the
// pre-registry encoding.
package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"dynp/internal/job"
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
	Cases    map[string]int `json:"cases,omitempty"` // by Table 1 case label
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
	return nil, fmt.Errorf("core: tuner state: policy %q is neither a candidate (%v) nor registered", name, policyNames(t.candidates))
}

func policyNames(ps []policy.Policy) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}

// decodeDecision is s with its policies held by name, for RestoreState
// to resolve.
func decodeDecision(s decState) Decision {
	d := Decision{Time: s.Time, Old: unresolved(s.Old), Chosen: unresolved(s.Chosen)}
	for _, bits := range s.Values {
		d.Values = append(d.Values, math.Float64frombits(bits))
	}
	return d
}

// unresolved is a policy known only by its name, as a decoded state holds
// it until RestoreState resolves it; it never reaches a plan.
type unresolved string

func (p unresolved) Name() string { return string(p) }

func (p unresolved) Less(*job.Job, *job.Job) bool { panic("core: unresolved policy " + string(p)) }

// TunerState is a tuner's decision state as a value — active policy,
// statistics (the Table 1 case counts included), last decision, (when
// tracing) the decision trace and (when the decider is stateful) the
// decider's name and opaque saved state.
// CaptureState copies it out and RestoreState installs it into a fresh
// tuner of the same configuration; MarshalJSON and UnmarshalJSON carry it
// through a checkpoint. Later steps of the tuner it was captured from
// leave it as it is.
type TunerState struct {
	active          policy.Policy
	steps, switches int
	chosen          []choiceCount // the Stats.Chosen entries, in no order
	cases           CaseCounts
	last            Decision // valid when hasLast; its Values are its own
	hasLast         bool
	trace           []Decision // the tuner's, capped: its entries are never rewritten
	decider         string
	deciderState    []byte
}

// Tuned is a scheduler whose decision state is a self-tuner's (sim.DynP):
// it hands that state out and takes it back as a value, and reads out
// its Table 1 case counts without copying the rest.
type Tuned interface {
	TunerState() (TunerState, error)
	SetTunerState(TunerState) error
	Cases() CaseCounts
}

type choiceCount struct {
	name string
	n    int
}

// CaptureState returns the tuner's decision state as a value. It copies
// the counts and the last decision's scores and shares the trace, whose
// entries the tuner only ever appends to; a stateful decider saves its
// state as bytes.
func (t *SelfTuner) CaptureState() (TunerState, error) {
	st := TunerState{active: t.active, steps: t.stats.Steps, switches: t.stats.Switches,
		cases: t.stats.Cases, trace: t.trace[:len(t.trace):len(t.trace)]}
	if len(t.stats.Chosen) > 0 {
		st.chosen = make([]choiceCount, 0, len(t.stats.Chosen))
		for name, n := range t.stats.Chosen {
			st.chosen = append(st.chosen, choiceCount{name, n})
		}
	}
	if t.hasLast {
		st.last, st.hasLast = t.last, true
		st.last.Values = slices.Clone(t.last.Values)
	}
	if sd, ok := t.decider.(StatefulDecider); ok {
		data, err := sd.SaveState()
		if err != nil {
			return TunerState{}, fmt.Errorf("core: tuner state: decider %s: %w", sd.Name(), err)
		}
		st.decider, st.deciderState = sd.Name(), data
	}
	return st, nil
}

// MarshalJSON encodes the state for a checkpoint, keyed by policy name.
// The encoding is deterministic: the same state always yields the same
// bytes.
func (st TunerState) MarshalJSON() ([]byte, error) {
	js := tunerState{Steps: st.steps, Switches: st.switches, Cases: st.cases.Map(),
		Decider: st.decider, DeciderState: st.deciderState}
	if st.active != nil {
		js.Active = st.active.Name()
	}
	if len(st.chosen) > 0 {
		js.Chosen = make(map[string]int, len(st.chosen))
		for _, c := range st.chosen {
			js.Chosen[c.name] = c.n
		}
	}
	if st.hasLast {
		d := encodeDecision(st.last)
		js.Last = &d
	}
	for _, d := range st.trace {
		js.Trace = append(js.Trace, encodeDecision(d))
	}
	return json.Marshal(js)
}

// UnmarshalJSON decodes a state MarshalJSON wrote. Every policy is held
// by name until RestoreState resolves it against the restoring tuner.
func (st *TunerState) UnmarshalJSON(data []byte) error {
	var js tunerState
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	*st = TunerState{active: unresolved(js.Active), steps: js.Steps, switches: js.Switches,
		decider: js.Decider, deciderState: js.DeciderState}
	for name, n := range js.Chosen {
		st.chosen = append(st.chosen, choiceCount{name, n})
	}
	if err := st.cases.setMap(js.Cases); err != nil {
		return err
	}
	if js.Last != nil {
		st.last, st.hasLast = decodeDecision(*js.Last), true
	}
	for _, s := range js.Trace {
		st.trace = append(st.trace, decodeDecision(s))
	}
	return nil
}

// RestoreState installs a decision state into a tuner constructed with
// the same candidate set, decider and metric. Every policy is resolved by
// name, against the tuner's candidates first (then the registry), so a
// state captured from a tuner and one decoded from a checkpoint restore
// alike; unknown names are refused with a clear error and leave the tuner
// untouched. A saved decider state is handed to the tuner's decider,
// which must carry the same name and implement StatefulDecider. The
// lane's order views are untouched: the next Plan syncs them with the
// queue it is handed.
func (t *SelfTuner) RestoreState(st TunerState) error {
	if st.active == nil {
		return fmt.Errorf("core: tuner state: no active policy")
	}
	active, err := t.lookupPolicy(st.active.Name())
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(t.candidates, func(c policy.Policy) bool { return c == active }) {
		return fmt.Errorf("core: tuner state: active policy %v is not a candidate", active)
	}
	if st.decider != "" && st.decider != t.decider.Name() {
		return fmt.Errorf("core: tuner state: saved decider %q does not match configured decider %q", st.decider, t.decider.Name())
	}
	var restoreDecider StatefulDecider
	if len(st.deciderState) > 0 {
		sd, ok := t.decider.(StatefulDecider)
		if !ok {
			return fmt.Errorf("core: tuner state: saved state for decider %q, but %T is not stateful", st.decider, t.decider)
		}
		restoreDecider = sd
	}
	for _, c := range st.chosen {
		// The counts stay name-keyed, but every name must still resolve:
		// a state referencing a policy this process never registered is
		// refused, not silently carried along.
		if _, err := t.lookupPolicy(c.name); err != nil {
			return err
		}
	}
	var last Decision
	if st.hasLast {
		if last.Old, last.Chosen, err = t.resolvePolicies(st.last); err != nil {
			return err
		}
	}
	var trace []Decision
	for _, d := range st.trace {
		old, chosen, err := t.resolvePolicies(d)
		if err != nil {
			return err
		}
		if t.traceOn {
			trace = append(trace, Decision{Time: d.Time, Old: old, Chosen: chosen, Values: slices.Clone(d.Values)})
		}
	}
	if restoreDecider != nil {
		if err := restoreDecider.RestoreState(st.deciderState); err != nil {
			return fmt.Errorf("core: tuner state: decider %s: %w", st.decider, err)
		}
	}

	// Install in place: the counts map and the last scores are the
	// tuner's own (Stats and CaptureState copy them), so a twin restored
	// once per quote reuses them. The trace is shared with captured
	// states and is replaced, never rewritten.
	t.active = active
	chosen := t.stats.Chosen
	clear(chosen)
	for _, c := range st.chosen {
		chosen[c.name] = c.n
	}
	t.stats = Stats{Steps: st.steps, Switches: st.switches, Chosen: chosen, Cases: st.cases}
	if st.hasLast {
		last.Time, last.Values = st.last.Time, append(t.last.Values[:0], st.last.Values...)
	}
	t.last, t.hasLast = last, st.hasLast
	if t.traceOn {
		t.trace = trace
	}
	return nil
}

// resolvePolicies resolves d's policies by name against this tuner.
func (t *SelfTuner) resolvePolicies(d Decision) (old, chosen policy.Policy, err error) {
	old, errOld := t.lookupPolicy(d.Old.Name())
	chosen, errChosen := t.lookupPolicy(d.Chosen.Name())
	return old, chosen, cmp.Or(errOld, errChosen)
}
