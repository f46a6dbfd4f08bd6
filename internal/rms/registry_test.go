// Tests for the registry-facing surface of the online RMS: the
// policies/deciders protocol ops, and checkpoint round-trips of
// registry-named state (a custom policy restores byte-identically; an
// unregistered policy name is refused, never silently substituted).
package rms

import (
	"encoding/json"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

func TestServerPoliciesAndDecidersOps(t *testing.T) {
	sv := newServer(t)
	resp := sv.Handle(Request{Op: "policies"})
	if !resp.OK {
		t.Fatalf("policies op: %+v", resp)
	}
	got := strings.Join(resp.Policies, ",")
	for _, want := range []string{"FCFS", "SJF", "LJF", "PSBS("} {
		if !strings.Contains(got, want) {
			t.Errorf("policies %q missing %q", got, want)
		}
	}
	resp = sv.Handle(Request{Op: "deciders"})
	if !resp.OK {
		t.Fatalf("deciders op: %+v", resp)
	}
	got = strings.Join(resp.Deciders, ",")
	for _, want := range []string{"simple", "advanced", "-preferred"} {
		if !strings.Contains(got, want) {
			t.Errorf("deciders %q missing %q", got, want)
		}
	}
}

// fairDynP is a self-tuning driver whose candidate set, fairCandidates,
// includes a custom policy next to the built-ins.
func fairDynP() *sim.DynP {
	return sim.NewDynPWith(fairCandidates, core.Preferred{Policy: fairCandidates[1]}, core.MetricSLDwA)
}

// fairCandidates' custom policy orders as the registered PSBS member of
// its name, but is a value of another type: the registry resolves the
// name to a distinct value, and only the candidate set to this one.
var fairCandidates = []policy.Policy{policy.FCFS, psbsCandidate{policy.MustFairSize(0.5, 2)}, policy.SJF}

type psbsCandidate struct{ policy.FairSize }

// TestJournalRoundTripWithCustomPolicy: a journal written by a daemon
// whose tuner runs a custom policy — chosen, serialized into checkpoints
// by a name the registry resolves to another value — must restore
// byte-identically, to the candidate, through both the
// checkpoint fast path and the genesis replay. The seeded streams run on
// such a daemon, held to a naive tuner over the same candidates.
func TestJournalRoundTripWithCustomPolicy(t *testing.T) {
	ds := tunerStreamOf(t, plantest.Capacity, fairDynP, func() *plantest.Tuner {
		return &plantest.Tuner{Candidates: fairCandidates, Decider: core.Preferred{Policy: fairCandidates[1]},
			Metric: core.MetricSLDwA, Active: fairCandidates[0]}
	})
	end := runDeliverLockstep(t, ds, decodeStream(plantest.Stream(0))[:journalOps])
	chosen := 0
	for _, data := range end.fs.files {
		for _, rec := range lines(data) {
			if l, ok := decodeRecord(rec); ok && l.Checkpoint != nil && strings.Contains(string(l.Checkpoint.Driver), `"PSBS(a=0.5,r=2)"`) {
				chosen++
			}
		}
	}
	if chosen == 0 {
		t.Fatal("no checkpoint names the custom policy: the tuner never chose it")
	}
	for _, genesis := range []bool{false, true} {
		s, _, _, err := replayJournal(plantest.Capacity, fairDynP(), end.fs, genesis)
		if err != nil {
			t.Fatalf("genesis %v: %v", genesis, err)
		}
		if got := daemonState(t, s); got != end.state {
			t.Errorf("genesis %v: the replay diverges\nlive: %v\ngot:  %v", genesis, end.state, got)
		}
	}
}

// TestJournalRefusesUnregisteredPolicy: a checkpoint record rewritten
// (with a valid checksum) to name a policy this process never registered
// in the driver's decision state, or to carry a driver state of the
// wrong shape, must be refused by replay with an error that says why —
// no silent fallback to a default ordering, and no falling back past the
// record as corrupt.
func TestJournalRefusesUnregisteredPolicy(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		patch      func(cs *checkpointState)
	}{
		{"driver-active", "NOPE-active", func(cs *checkpointState) {
			var st map[string]json.RawMessage
			if err := json.Unmarshal(cs.Driver, &st); err != nil {
				t.Fatal(err)
			}
			st["active"] = json.RawMessage(`"NOPE-active"`)
			var err error
			if cs.Driver, err = json.Marshal(st); err != nil {
				t.Fatal(err)
			}
		}},
		{"driver-shape", "driver state", func(cs *checkpointState) {
			cs.Driver = json.RawMessage(`{"active":["SJF"],"steps":"many"}`)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := journalStream(t, 9).fs
			patchRecord(t, fs, journalPath, 1, func(l *journalLine) {
				if l.Checkpoint == nil {
					t.Fatal("the active segment opens with no checkpoint")
				}
				tc.patch(l.Checkpoint)
			})
			if _, _, _, err := replayStream(fs, false); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("journal with a patched checkpoint replayed: %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestStatusActivePolicyIsName pins the wire type: the status op carries
// the active policy as its registry name, so any registered policy —
// parameterized family members included — crosses the protocol intact.
func TestStatusActivePolicyIsName(t *testing.T) {
	s, err := New(8, fairDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(1, 10); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if _, err := policy.Lookup(st.ActivePolicy); err != nil {
		t.Fatalf("ActivePolicy %q does not resolve: %v", st.ActivePolicy, err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Status
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("Status does not round-trip JSON: %v", err)
	}
}
