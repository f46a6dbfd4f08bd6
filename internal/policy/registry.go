// The policy registry: the open extension point that replaced the closed
// Policy enum. Policies resolve by stable name; unknown names fail at
// parse/registration time with an error, never mid-plan. Parameterized
// families (e.g. the PSBS-style fairness policies) register a parser that
// claims spec strings like "PSBS(a=0.5,r=2)".
package policy

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// family is one registered parameterized policy family.
type family struct {
	template string // display form for listings, e.g. "PSBS(a=<alpha>,r=<robust>)"
	parse    func(spec string) (Policy, bool, error)
}

var registry = struct {
	sync.RWMutex
	byName   map[string]Policy
	families []family
}{byName: make(map[string]Policy)}

func init() {
	for _, p := range All {
		MustRegister(p)
	}
	MustRegisterFamily(FairSizeTemplate, parseFairSize)
}

// Register adds a policy to the registry under its Name. Registration
// validates everything a config path previously discovered only by
// panicking mid-plan:
//
//   - the policy must be non-nil with a non-empty name;
//   - the dynamic type must be comparable (Policy values key maps and are
//     compared with == throughout the scheduler);
//   - the name must be free, or already bound to an identical value
//     (re-registering the same policy is a no-op, so init-order races in
//     user code stay harmless).
//
// Registering a name changes nothing about scheduling behaviour: a
// registered-but-unused policy is never consulted.
func Register(p Policy) error {
	if p == nil {
		return fmt.Errorf("policy: Register(nil)")
	}
	if !reflect.TypeOf(p).Comparable() {
		return fmt.Errorf("policy: %T is not comparable; Policy implementations must be comparable value types (no slice, map or func fields)", p)
	}
	name := p.Name()
	if name == "" {
		return fmt.Errorf("policy: Register with empty name (%T)", p)
	}
	registry.Lock()
	defer registry.Unlock()
	if old, ok := registry.byName[name]; ok {
		if old == p {
			return nil
		}
		return fmt.Errorf("policy: name %q already registered to %T", name, old)
	}
	registry.byName[name] = p
	return nil
}

// MustRegister is Register, panicking on error — for init-time use.
func MustRegister(p Policy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// RegisterFamily adds a parameterized policy family. parse is offered
// every looked-up name that matches no exact registration; it reports
// whether it claims the spec, and an error when it claims a spec that is
// malformed (wrong parameter syntax, out-of-range values). template is
// the display form shown by Names, e.g. "PSBS(a=<alpha>,r=<robust>)".
//
// A policy returned by parse must obey the same contract as Register:
// comparable, stable name, total-order Less. Equal specs must parse to
// == values, so repeated lookups agree.
func RegisterFamily(template string, parse func(spec string) (Policy, bool, error)) error {
	if template == "" || parse == nil {
		return fmt.Errorf("policy: RegisterFamily needs a template and a parser")
	}
	registry.Lock()
	defer registry.Unlock()
	for _, f := range registry.families {
		if f.template == template {
			return fmt.Errorf("policy: family %q already registered", template)
		}
	}
	registry.families = append(registry.families, family{template, parse})
	return nil
}

// MustRegisterFamily is RegisterFamily, panicking on error.
func MustRegisterFamily(template string, parse func(spec string) (Policy, bool, error)) {
	if err := RegisterFamily(template, parse); err != nil {
		panic(err)
	}
}

// Lookup resolves a policy name: exact registrations first, then the
// registered families in registration order. Unknown names return an
// error — configuration paths fail here, at parse time, instead of
// carrying an invalid value into the planner.
func Lookup(name string) (Policy, error) {
	registry.RLock()
	p, ok := registry.byName[name]
	families := registry.families
	registry.RUnlock()
	if ok {
		return p, nil
	}
	for _, f := range families {
		p, claimed, err := f.parse(name)
		if err != nil {
			return nil, fmt.Errorf("policy: %q: %w", name, err)
		}
		if claimed {
			if p.Name() != name {
				return nil, fmt.Errorf("policy: family spec %q parsed to inconsistent name %q", name, p.Name())
			}
			return p, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
}

// Names lists every registered policy name in sorted order, followed by
// the templates of the registered families — the enumeration behind the
// CLIs' -list output and the daemon's "policies" op.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.byName)+len(registry.families))
	for name := range registry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	for _, f := range registry.families {
		out = append(out, f.template)
	}
	return out
}
