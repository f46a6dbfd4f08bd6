package core

import (
	"math"
	"strings"
	"testing"

	"dynp/internal/policy"
)

var candidates = []policy.Policy{policy.FCFS, policy.SJF, policy.LJF}

func decide(d Decider, old policy.Policy, f, s, l float64) policy.Policy {
	return d.Decide(old, candidates, []float64{f, s, l})
}

// valueTriples enumerates all order types of three values: every
// assignment of {1, 2, 3} (with repetition) to (FCFS, SJF, LJF) covers
// every possible <,=,> relation pattern.
func valueTriples() [][3]float64 {
	var out [][3]float64
	for f := 1; f <= 3; f++ {
		for s := 1; s <= 3; s++ {
			for l := 1; l <= 3; l++ {
				out = append(out, [3]float64{float64(f), float64(s), float64(l)})
			}
		}
	}
	return out
}

func TestSimpleMatchesReferenceExhaustively(t *testing.T) {
	d := Simple{}
	for _, v := range valueTriples() {
		for _, old := range candidates {
			got := decide(d, old, v[0], v[1], v[2])
			want := ReferenceSimple(v[0], v[1], v[2])
			if got != want {
				t.Fatalf("Simple(%v, old=%v) = %v, want %v", v, old, got, want)
			}
		}
	}
}

func TestAdvancedMatchesReferenceExhaustively(t *testing.T) {
	d := Advanced{}
	for _, v := range valueTriples() {
		for _, old := range candidates {
			got := decide(d, old, v[0], v[1], v[2])
			want := ReferenceCorrect(old, v[0], v[1], v[2])
			if got != want {
				t.Fatalf("Advanced(%v, old=%v) = %v, want %v", v, old, got, want)
			}
		}
	}
}

func TestPreferredMatchesReferenceExhaustively(t *testing.T) {
	for _, pref := range candidates {
		d := Preferred{Policy: pref}
		for _, v := range valueTriples() {
			for _, old := range candidates {
				got := decide(d, old, v[0], v[1], v[2])
				want := ReferencePreferred(pref, old, v[0], v[1], v[2])
				if got != want {
					t.Fatalf("Preferred(%v)(%v, old=%v) = %v, want %v",
						pref, v, old, got, want)
				}
			}
		}
	}
}

func TestSimpleIgnoresOldPolicy(t *testing.T) {
	d := Simple{}
	for _, v := range valueTriples() {
		first := decide(d, policy.FCFS, v[0], v[1], v[2])
		for _, old := range candidates[1:] {
			if got := decide(d, old, v[0], v[1], v[2]); got != first {
				t.Fatalf("Simple depends on old policy at %v", v)
			}
		}
	}
}

func TestAdvancedKeepsOldOnTies(t *testing.T) {
	d := Advanced{}
	for _, old := range candidates {
		if got := decide(d, old, 1, 1, 1); got != old {
			t.Errorf("all-equal: Advanced(old=%v) = %v, want old", old, got)
		}
	}
	// Case 6b of Table 1: FCFS = SJF < LJF, old = SJF -> stay with SJF.
	if got := decide(d, policy.SJF, 1, 1, 2); got != policy.SJF {
		t.Errorf("case 6b: got %v, want SJF", got)
	}
	// Case 8c: FCFS = LJF < SJF, old = LJF -> stay with LJF.
	if got := decide(d, policy.LJF, 1, 2, 1); got != policy.LJF {
		t.Errorf("case 8c: got %v, want LJF", got)
	}
	// Case 10c: SJF = LJF < FCFS, old = LJF -> stay with LJF.
	if got := decide(d, policy.LJF, 2, 1, 1); got != policy.LJF {
		t.Errorf("case 10c: got %v, want LJF", got)
	}
}

func TestAdvancedStrictMinimumAlwaysWins(t *testing.T) {
	d := Advanced{}
	for _, old := range candidates {
		if got := decide(d, old, 2, 1, 3); got != policy.SJF {
			t.Errorf("strict SJF min, old=%v: got %v", old, got)
		}
		if got := decide(d, old, 1, 2, 3); got != policy.FCFS {
			t.Errorf("strict FCFS min, old=%v: got %v", old, got)
		}
		if got := decide(d, old, 3, 2, 1); got != policy.LJF {
			t.Errorf("strict LJF min, old=%v: got %v", old, got)
		}
	}
}

func TestPreferredPaperSemantics(t *testing.T) {
	d := Preferred{Policy: policy.SJF}

	// Stays with SJF when merely equal to the best.
	if got := decide(d, policy.SJF, 1, 1, 2); got != policy.SJF {
		t.Errorf("SJF tied with FCFS while active: got %v, want SJF", got)
	}
	// Switches away only when another policy is strictly better.
	if got := decide(d, policy.SJF, 1, 2, 3); got != policy.FCFS {
		t.Errorf("FCFS strictly better: got %v, want FCFS", got)
	}
	// Switches back on equality: FCFS active, SJF ties FCFS.
	if got := decide(d, policy.FCFS, 1, 1, 2); got != policy.SJF {
		t.Errorf("equal performance must switch back to SJF: got %v", got)
	}
	// All equal: back to the preferred policy regardless of old.
	for _, old := range candidates {
		if got := decide(d, old, 1, 1, 1); got != policy.SJF {
			t.Errorf("all equal, old=%v: got %v, want SJF", old, got)
		}
	}
	// Preferred not minimal and old not minimal: best policy wins.
	if got := decide(d, policy.SJF, 3, 2, 1); got != policy.LJF {
		t.Errorf("LJF strict min: got %v, want LJF", got)
	}
	// Preferred not minimal but old is: old retained (fair fallback).
	if got := decide(d, policy.LJF, 1, 2, 1); got != policy.LJF {
		t.Errorf("old ties min without SJF: got %v, want LJF", got)
	}
}

func TestPreferredDiffersFromAdvancedExactlyOnPreferredTies(t *testing.T) {
	adv, pref := Advanced{}, Preferred{Policy: policy.SJF}
	for _, v := range valueTriples() {
		for _, old := range candidates {
			a := decide(adv, old, v[0], v[1], v[2])
			p := decide(pref, old, v[0], v[1], v[2])
			if a == p {
				continue
			}
			// They may only differ when SJF ties the minimum and the
			// advanced decider chose something else.
			min := v[0]
			if v[1] < min {
				min = v[1]
			}
			if v[2] < min {
				min = v[2]
			}
			if v[1] != min || p != policy.SJF {
				t.Fatalf("unexpected divergence at %v old=%v: adv=%v pref=%v",
					v, old, a, p)
			}
		}
	}
}

func TestToleranceTreatsNearEqualAsTie(t *testing.T) {
	d := Advanced{}
	// Values differing by less than the relative tolerance are ties.
	v := 100.0
	got := d.Decide(policy.LJF, candidates, []float64{v, v * (1 + 1e-12), v})
	if got != policy.LJF {
		t.Fatalf("near-tie not detected: got %v", got)
	}
}

func TestNewDecider(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"simple", "simple"},
		{"advanced", "advanced"},
		{"SJF-preferred", "SJF-preferred"},
		{"FCFS-preferred", "FCFS-preferred"},
		{"LJF-preferred", "LJF-preferred"},
	}
	for _, c := range cases {
		d, err := NewDecider(c.name)
		if err != nil {
			t.Errorf("NewDecider(%q): %v", c.name, err)
			continue
		}
		if d.Name() != c.want {
			t.Errorf("NewDecider(%q).Name() = %q", c.name, d.Name())
		}
	}
	for _, bad := range []string{
		"", "unknown", "XXX-preferred", "-preferred",
		// Regression: the former fmt.Sscanf parsing skipped leading
		// whitespace and stopped at the first space, accepting all of
		// these as SJF-preferred.
		"SJF-preferred junk",
		" SJF-preferred",
		"SJF-preferred\textra",
		"SJF-preferred ",
		"\nSJF-preferred",
		"simple ",
		" advanced",
	} {
		if _, err := NewDecider(bad); err == nil {
			t.Errorf("NewDecider(%q) accepted", bad)
		}
	}
}

func TestDecidersPanicOnEmptyCandidates(t *testing.T) {
	for _, d := range []Decider{Simple{}, Advanced{}, Preferred{Policy: policy.SJF}} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic on empty candidates", d.Name())
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "no candidates") {
					t.Errorf("%s: empty-candidates panic %v does not say so", d.Name(), r)
				}
			}()
			d.Decide(policy.FCFS, nil, nil)
		}()
	}
}

// TestDecidersWithNonFiniteValues pins the deciders' behavior when a
// what-if score degenerates: NaN orders deterministically last (treated
// as +Inf), equal infinities tie, and no decider ever panics on a
// non-empty candidate set. Regression: a NaN used to poison the minimum
// (every comparison false), leaving no candidate tied to it and
// panicking with the misleading "Decide with no candidates".
func TestDecidersWithNonFiniteValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name                    string
		values                  [3]float64 // FCFS, SJF, LJF
		old                     policy.Policy
		simple, advanced, sjfPr policy.Policy
	}{
		// A single NaN loses to any finite value.
		{"nan-first", [3]float64{nan, 1, 2}, policy.FCFS, policy.SJF, policy.SJF, policy.SJF},
		{"nan-middle", [3]float64{1, nan, 2}, policy.SJF, policy.FCFS, policy.FCFS, policy.FCFS},
		{"nan-last", [3]float64{2, 1, nan}, policy.LJF, policy.SJF, policy.SJF, policy.SJF},
		// All NaN: a three-way last-place tie; the usual tie rules apply.
		{"all-nan", [3]float64{nan, nan, nan}, policy.LJF, policy.FCFS, policy.LJF, policy.SJF},
		// NaN ties +Inf (both order last).
		{"nan-vs-inf", [3]float64{nan, inf, 1}, policy.FCFS, policy.LJF, policy.LJF, policy.LJF},
		{"nan-and-inf-only", [3]float64{nan, inf, inf}, policy.FCFS, policy.FCFS, policy.FCFS, policy.SJF},
		// Equal infinities tie instead of panicking (Inf-Inf is NaN, which
		// fails every tolerance test without the equality short-circuit).
		{"all-inf", [3]float64{inf, inf, inf}, policy.SJF, policy.FCFS, policy.SJF, policy.SJF},
		// -Inf is a legitimate strict minimum.
		{"neg-inf-wins", [3]float64{math.Inf(-1), 0, 1}, policy.SJF, policy.FCFS, policy.FCFS, policy.FCFS},
		{"neg-inf-tie", [3]float64{math.Inf(-1), math.Inf(-1), 0}, policy.SJF, policy.FCFS, policy.SJF, policy.SJF},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := c.values
			if got := decide(Simple{}, c.old, v[0], v[1], v[2]); got != c.simple {
				t.Errorf("Simple = %v, want %v", got, c.simple)
			}
			if got := decide(Advanced{}, c.old, v[0], v[1], v[2]); got != c.advanced {
				t.Errorf("Advanced = %v, want %v", got, c.advanced)
			}
			if got := decide(Preferred{Policy: policy.SJF}, c.old, v[0], v[1], v[2]); got != c.sjfPr {
				t.Errorf("SJF-preferred = %v, want %v", got, c.sjfPr)
			}
		})
	}
}

// TestDecidersAllocateNothing: the paper's deciders read the tie set off
// the minimum in place. Every member of a co-simulated group decides at
// every scheduling event, so a per-decision allocation would be paid
// once per member per event.
func TestDecidersAllocateNothing(t *testing.T) {
	values := []float64{2, 1, 1}
	for _, d := range []Decider{Simple{}, Advanced{}, Preferred{Policy: policy.SJF}} {
		if avg := testing.AllocsPerRun(100, func() { d.Decide(policy.LJF, candidates, values) }); avg != 0 {
			t.Errorf("%s.Decide allocates %.2f objects per call, want 0", d.Name(), avg)
		}
	}
}
