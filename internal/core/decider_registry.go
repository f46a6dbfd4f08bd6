// The decider registry: the open extension point that replaced the
// closed NewDecider switch. Deciders resolve by stable name; stateful
// deciders additionally implement StatefulDecider so the checkpoint path
// (PR 7) can round-trip their internal state by name.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dynp/internal/policy"
)

// StatefulDecider is a Decider that carries internal state across
// decisions (e.g. a learned decider's feature history). The self-tuner's
// TunerState carries that state, keyed by the decider's Name, into quote
// twins and through the rms journal checkpoints.
//
// SaveState must be deterministic — the same decider state always yields
// the same bytes — because checkpoint encodings are compared
// byte-for-byte. RestoreState is called on a freshly constructed decider
// (resolved by name from this registry) and must reject bytes it cannot
// interpret with an error rather than guessing.
type StatefulDecider interface {
	Decider
	// SaveState serialises the decider's internal state.
	SaveState() ([]byte, error)
	// RestoreState installs a previously saved state.
	RestoreState(data []byte) error
}

// deciderFamily is one registered parameterized decider family.
type deciderFamily struct {
	template string // display form for listings, e.g. "<POLICY>-preferred"
	parse    func(spec string) (Decider, bool, error)
}

var deciderRegistry = struct {
	sync.RWMutex
	byName   map[string]func() Decider
	families []deciderFamily
}{byName: make(map[string]func() Decider)}

func init() {
	MustRegisterDecider("simple", func() Decider { return Simple{} })
	MustRegisterDecider("advanced", func() Decider { return Advanced{} })
	MustRegisterDeciderFamily("<POLICY>-preferred", parsePreferred)
}

// parsePreferred claims decider specs of the form "<POLICY>-preferred"
// (e.g. "SJF-preferred"), resolving the policy through the policy
// registry. The policy part must be a registered name; its canonical
// round-trip guarantees Preferred.Name() reproduces the spec.
func parsePreferred(spec string) (Decider, bool, error) {
	pol, ok := strings.CutSuffix(spec, "-preferred")
	if !ok || pol == "" {
		return nil, false, nil
	}
	p, err := policy.Lookup(pol)
	if err != nil {
		return nil, true, fmt.Errorf("bad preferred policy: %w", err)
	}
	return Preferred{Policy: p}, true, nil
}

// RegisterDecider adds a decider constructor under a fixed name. The
// constructor is invoked once per NewDecider call, so every tuner gets a
// fresh instance — required for stateful deciders, harmless for
// stateless ones. The constructed decider's Name must equal the
// registered name (checked at registration), because the name keys
// serialized tuner state. Registering a taken name is an error.
func RegisterDecider(name string, make func() Decider) error {
	if name == "" || make == nil {
		return fmt.Errorf("core: RegisterDecider needs a name and a constructor")
	}
	d := make()
	if d == nil {
		return fmt.Errorf("core: decider constructor for %q returned nil", name)
	}
	if d.Name() != name {
		return fmt.Errorf("core: decider registered as %q reports Name %q; the names must match (they key serialized state)", name, d.Name())
	}
	deciderRegistry.Lock()
	defer deciderRegistry.Unlock()
	if _, ok := deciderRegistry.byName[name]; ok {
		return fmt.Errorf("core: decider name %q already registered", name)
	}
	deciderRegistry.byName[name] = make
	return nil
}

// MustRegisterDecider is RegisterDecider, panicking on error.
func MustRegisterDecider(name string, make func() Decider) {
	if err := RegisterDecider(name, make); err != nil {
		panic(err)
	}
}

// RegisterDeciderFamily adds a parameterized decider family. parse is
// offered every looked-up name that matches no exact registration; it
// reports whether it claims the spec, and an error when it claims a
// malformed spec. template is the display form shown by DeciderNames.
func RegisterDeciderFamily(template string, parse func(spec string) (Decider, bool, error)) error {
	if template == "" || parse == nil {
		return fmt.Errorf("core: RegisterDeciderFamily needs a template and a parser")
	}
	deciderRegistry.Lock()
	defer deciderRegistry.Unlock()
	for _, f := range deciderRegistry.families {
		if f.template == template {
			return fmt.Errorf("core: decider family %q already registered", template)
		}
	}
	deciderRegistry.families = append(deciderRegistry.families, deciderFamily{template, parse})
	return nil
}

// MustRegisterDeciderFamily is RegisterDeciderFamily, panicking on error.
func MustRegisterDeciderFamily(template string, parse func(spec string) (Decider, bool, error)) {
	if err := RegisterDeciderFamily(template, parse); err != nil {
		panic(err)
	}
}

// NewDecider constructs a decider from its registered name: exact
// registrations first ("simple", "advanced", user registrations), then
// the registered families in registration order ("<POLICY>-preferred"
// specs like "SJF-preferred"). The name must match exactly — no
// surrounding whitespace and nothing after a family suffix. Unknown
// names return an error listing what is registered.
func NewDecider(name string) (Decider, error) {
	deciderRegistry.RLock()
	make, ok := deciderRegistry.byName[name]
	families := deciderRegistry.families
	deciderRegistry.RUnlock()
	if ok {
		return make(), nil
	}
	for _, f := range families {
		d, claimed, err := f.parse(name)
		if err != nil {
			return nil, fmt.Errorf("core: decider %q: %w", name, err)
		}
		if claimed {
			if d.Name() != name {
				return nil, fmt.Errorf("core: decider family spec %q parsed to inconsistent name %q", name, d.Name())
			}
			return d, nil
		}
	}
	return nil, fmt.Errorf("core: unknown decider %q (registered: %v)", name, DeciderNames())
}

// DeciderNames lists every registered decider name in sorted order,
// followed by the templates of the registered families — the enumeration
// behind the CLIs' -list output and the daemon's "deciders" op.
func DeciderNames() []string {
	deciderRegistry.RLock()
	defer deciderRegistry.RUnlock()
	out := make([]string, 0, len(deciderRegistry.byName)+len(deciderRegistry.families))
	for name := range deciderRegistry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	for _, f := range deciderRegistry.families {
		out = append(out, f.template)
	}
	return out
}
