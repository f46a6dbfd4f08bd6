package main

import (
	"embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/sim"
)

// fingerprint condenses everything a simulation decided: per-job
// (id, start, finish) in completion order, the tuner's step, switch and
// per-policy choice counts, and the number of scheduling events. Times
// are taken relative to the seed's time origin, so one committed value
// per job set holds for every seed. A speed-up that moves a single
// simulated statistic changes it.
func fingerprint(res *sim.Result, st core.Stats, offset int64) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range res.Records {
		put(int64(r.Job.ID))
		put(r.Start - offset)
		put(r.Finish - offset)
	}
	put(int64(st.Steps))
	put(int64(st.Switches))
	names := make([]string, 0, len(st.Chosen))
	for n := range st.Chosen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		put(int64(st.Chosen[n]))
	}
	put(int64(res.Events))
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// verifiedRun simulates the set with the engine verifying every schedule
// against the machine state, and returns the run with its fingerprint.
func verifiedRun(set *job.Set, offset int64) (*sim.Result, string, error) {
	d := newDriver()
	res, err := sim.Run(set, d, sim.WithVerify())
	if err != nil {
		return nil, "", fmt.Errorf("verified run of %s: %w", set.Name, err)
	}
	return res, fingerprint(res, d.Stats(), offset), nil
}

//go:embed expected/*.json
var expectedFS embed.FS

// oracle holds the reference fingerprints of one workload, keyed by job
// set name (or "tables" for the sweep). At full size they are the
// committed benchmark/expected/<workload>.json, recorded from verified
// runs; at smoke size they are computed on the spot the same way.
type oracle struct {
	want map[string]string
}

func loadOracle(workload string) (*oracle, error) {
	data, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("reference fingerprints: %w (record them with -update-expected)", err)
	}
	o := &oracle{}
	if err := json.Unmarshal(data, &o.want); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", workload, err)
	}
	return o, nil
}

// liveOracle computes the references from verified runs of the sets.
func liveOracle(sets []*job.Set, offset int64) (*oracle, error) {
	o := &oracle{want: make(map[string]string)}
	for _, set := range sets {
		_, fp, err := verifiedRun(set, offset)
		if err != nil {
			return nil, err
		}
		o.want[set.Name] = fp
	}
	return o, nil
}

// save writes the references where the next build embeds them; it runs
// from the repository root, like the benchmark itself.
func (o *oracle) save(workload string) error {
	data, err := json.MarshalIndent(o.want, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "expected", workload+".json"), append(data, '\n'), 0o644)
}

// check reports whether got is the reference for key; a key the oracle
// has never seen is a failure, not a pass.
func (o *oracle) check(key, got string) error {
	want, ok := o.want[key]
	if !ok {
		return fmt.Errorf("no reference fingerprint for %q", key)
	}
	if got != want {
		return fmt.Errorf("%s: fingerprint %s, reference %s", key, got, want)
	}
	return nil
}

// freshJobs sizes the per-seed correctness probe.
const freshJobs = 1000

// freshCheck is where -seed draws genuinely new jobs: one set from the
// workload's first model, simulated plainly and under verification. The
// two must agree, so the timed code is also right on inputs nobody
// committed a reference for.
func freshCheck(s spec, seed uint64) error {
	sets, err := s.models[0].GenerateSets(1, min(freshJobs, s.jobs), seed)
	if err != nil {
		return err
	}
	set := sets[0].Shrink(s.shrinks[0])
	_, want, err := verifiedRun(set, 0)
	if err != nil {
		return err
	}
	d := newDriver()
	res, err := sim.Run(set, d)
	if err != nil {
		return err
	}
	if got := fingerprint(res, d.Stats(), 0); got != want {
		return fmt.Errorf("fresh set (seed %d): plain run %s, verified run %s", seed, got, want)
	}
	return nil
}
