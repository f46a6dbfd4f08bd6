// Tests for the registry-facing surface of the online RMS: the
// policies/deciders protocol ops, and checkpoint round-trips of
// registry-named state (a custom policy restores byte-identically; an
// unregistered policy name is refused, never silently substituted).
package rms

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dynp/internal/core"
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

// fairDynP is a self-tuning driver whose candidate set includes a
// registered custom (PSBS family) policy next to the built-ins.
func fairDynP() sim.Driver {
	psbs := policy.MustFairSize(0.5, 2)
	return sim.NewDynPWith([]policy.Policy{policy.FCFS, psbs, policy.SJF},
		core.Preferred{Policy: psbs}, core.MetricSLDwA)
}

// TestJournalRoundTripWithCustomPolicy: a journal written by a scheduler
// whose tuner runs a registered custom policy — chosen, serialized into
// checkpoints by name — must restore byte-identically through both the
// checkpoint fast path and the genesis replay.
func TestJournalRoundTripWithCustomPolicy(t *testing.T) {
	path := t.TempDir() + "/events.journal"
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotEvery(5)
	live, err := New(8, fairDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	driveRandomEvents(t, live, 0x9a5b, 120)
	want := fingerprint(t, live)
	if !strings.Contains(want, "PSBS(a=0.5,r=2)") {
		t.Fatalf("custom policy never became active; fingerprint %s", want)
	}
	j.Close()

	jf, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	fast, err := New(8, fairDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Replay(fast); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, fast); got != want {
		t.Errorf("checkpoint restart diverges\nlive: %s\nfast: %s", want, got)
	}

	jg, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jg.Close()
	genesis, err := New(8, fairDynP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jg.ReplayGenesis(genesis); err != nil {
		t.Fatalf("genesis audit: %v", err)
	}
	if got := fingerprint(t, genesis); got != want {
		t.Errorf("genesis replay diverges\nlive:    %s\ngenesis: %s", want, got)
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
			live, j, path := journaledScheduler(t, 8, 2)
			for i := 0; i < 6; i++ {
				if _, err := live.Submit(8, 50); err != nil {
					t.Fatal(err)
				}
			}
			if err := live.Advance(10); err != nil {
				t.Fatal(err)
			}
			j.Close()

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
			patched := false
			for i, line := range lines {
				l, ok := decodeRecord([]byte(line))
				if !ok || l.Checkpoint == nil {
					continue
				}
				tc.patch(l.Checkpoint)
				rec, err := encodeRecord(&l)
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = strings.TrimSuffix(string(rec), "\n")
				patched = true
			}
			if !patched {
				t.Skip("no checkpoint to patch in the active segment")
			}
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}

			jf, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer jf.Close()
			fresh, err := New(8, newDynP(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := jf.Replay(fresh); err == nil || !strings.Contains(err.Error(), tc.want) {
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
