package dynp_test

// End-to-end acceptance of the open registries: a custom policy and a
// custom stateful decider, registered exclusively through the public
// dynp facade, drive (1) a plain simulation, (2) the experiment sweep,
// and (3) an online dynpd-style scheduler across a journal write,
// process "restart" and replay — with the tuner's registry-named state
// restored intact.

import (
	"encoding/json"
	"strings"
	"testing"

	"dynp"
	"dynp/internal/rms"
)

// widestFirst is the custom policy: widest job first, facade tie-break.
type widestFirst struct{}

func (widestFirst) Name() string { return "WIDEST" }
func (widestFirst) Less(a, b *dynp.Job) bool {
	if a.Width != b.Width {
		return a.Width > b.Width
	}
	return dynp.TieBreak(a, b)
}

// switchCounter is the custom decider: advanced decisions, counting how
// often the choice changes the active policy — state that must survive
// a journal restart.
type switchCounter struct {
	inner    dynp.Decider
	Switches int `json:"switches"`
}

func newSwitchCounter() *switchCounter {
	return &switchCounter{inner: dynp.AdvancedDecider()}
}

func (d *switchCounter) Name() string { return "switch-counter" }

func (d *switchCounter) Decide(old dynp.Policy, candidates []dynp.Policy, values []float64) dynp.Policy {
	chosen := d.inner.Decide(old, candidates, values)
	if chosen != old {
		d.Switches++
	}
	return chosen
}

func (d *switchCounter) SaveState() ([]byte, error)     { return json.Marshal(d) }
func (d *switchCounter) RestoreState(data []byte) error { return json.Unmarshal(data, d) }

// registerE2E registers both extensions once; idempotent re-registration
// of the identical policy value is allowed, and the decider registry is
// only fed on the first call.
func registerE2E(t *testing.T) {
	t.Helper()
	if err := dynp.RegisterPolicy(widestFirst{}); err != nil {
		t.Fatal(err)
	}
	if _, err := dynp.NewDecider("switch-counter"); err != nil {
		if err := dynp.RegisterDecider("switch-counter", func() dynp.Decider {
			return newSwitchCounter()
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestE2ERegisteredPolicyAndDeciderSimulate(t *testing.T) {
	registerE2E(t)

	// The registered policy resolves by name and schedules a run.
	p, err := dynp.ParsePolicy("WIDEST")
	if err != nil {
		t.Fatal(err)
	}
	set, err := dynp.KTH.Generate(400, dynp.NewStream(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynp.Simulate(set, dynp.NewStaticScheduler(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "WIDEST" || len(res.Records) != len(set.Jobs) {
		t.Fatalf("scheduler %q, %d records", res.Scheduler, len(res.Records))
	}

	// The registered decider resolves by name and self-tunes a run.
	d, err := dynp.NewDecider("switch-counter")
	if err != nil {
		t.Fatal(err)
	}
	res, err = dynp.Simulate(set, dynp.NewDynPScheduler(d))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Scheduler, "switch-counter") {
		t.Fatalf("scheduler %q", res.Scheduler)
	}
	if d.(*switchCounter).Switches == 0 {
		t.Fatal("custom decider never observed a policy switch")
	}
}

func TestE2ERegisteredExtensionsInSweep(t *testing.T) {
	registerE2E(t)

	staticSpec, err := dynp.ParseSchedulerSpec("WIDEST")
	if err != nil {
		t.Fatal(err)
	}
	dynPSpec, err := dynp.ParseSchedulerSpec("dynP/switch-counter")
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynp.RunExperiment(dynp.ExperimentConfig{
		Model:      dynp.KTH,
		Shrinks:    []float64{1.0, 0.8},
		Sets:       2,
		JobsPerSet: 150,
		Seed:       5,
		Schedulers: []dynp.SchedulerSpec{staticSpec, dynPSpec},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{"WIDEST", "dynP/switch-counter"} {
		for _, f := range []float64{1.0, 0.8} {
			c := res.Cell(f, sched)
			if c == nil {
				t.Fatalf("no cell for %s at shrink %.1f", sched, f)
			}
			if c.SLDwA < 1 {
				t.Errorf("%s shrink %.1f: SLDwA %f", sched, f, c.SLDwA)
			}
		}
	}
}

func TestE2ERegisteredExtensionsSurviveJournalRestart(t *testing.T) {
	registerE2E(t)

	d, err := dynp.NewDecider("switch-counter")
	if err != nil {
		t.Fatal(err)
	}
	// Candidate set includes the custom policy, so checkpoints serialize
	// its registry name in tuner state.
	p, err := dynp.ParsePolicy("WIDEST")
	if err != nil {
		t.Fatal(err)
	}
	newDriver := func(dec dynp.Decider) dynp.Scheduler {
		return dynp.NewDynPSchedulerWith(
			[]dynp.Policy{dynp.FCFS, p, dynp.SJF}, dec, dynp.MetricSLDwA)
	}

	path := t.TempDir() + "/events.journal"
	j, err := rms.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotEvery(4)
	live, err := rms.New(16, newDriver(d), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	var ids []dynp.JobID
	for i := 0; i < 12; i++ {
		info, err := live.Submit(1+(i*5)%16, int64(40+i*17))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if err := live.Advance(90); err != nil {
		t.Fatal(err)
	}
	if err := live.Cancel(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := live.Advance(200); err != nil {
		t.Fatal(err)
	}
	liveStatus, err := json.Marshal(live.Status())
	if err != nil {
		t.Fatal(err)
	}
	liveSwitches := d.(*switchCounter).Switches
	j.Close()

	// "Restart": a fresh process with the same registrations replays the
	// journal into a virgin scheduler.
	j2, err := rms.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	d2, err := dynp.NewDecider("switch-counter")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := rms.New(16, newDriver(d2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Replay(restored); err != nil {
		t.Fatalf("replay with registered extensions failed: %v", err)
	}
	restoredStatus, err := json.Marshal(restored.Status())
	if err != nil {
		t.Fatal(err)
	}
	if string(restoredStatus) != string(liveStatus) {
		t.Errorf("status diverges after restart\nlive:     %s\nrestored: %s",
			liveStatus, restoredStatus)
	}
	if got := d2.(*switchCounter).Switches; got != liveSwitches {
		t.Errorf("decider state: %d switches restored, live had %d", got, liveSwitches)
	}
	if liveSwitches == 0 {
		t.Error("fixture too tame: no policy switches happened before the restart")
	}
}
