package rms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// lockstepFactory builds one self-checking driver for the daemon streams:
// the lockstep wrapper, plus — for a self-tuning one — the wrapped dynP
// driver and the naive tuner it is held to (nil for a static driver).
type lockstepFactory func() (sim.Driver, *sim.DynP, *plantest.Tuner)

// runDeliverLockstep feeds a plantest event stream — two bytes an event —
// through the daemon's entry points, with a lockstep driver inside the
// Scheduler: every plan the daemon makes, including those of the sweep
// Deliver performs on its way to a later instant, is checked against the
// naive oracle, and the scheduler's invariants after every event. The
// ops mirror plantest.Run's; a daemon assigns its own IDs, so a cancelled
// job is re-submitted under a fresh one, and op 7 splits into what only a
// daemon has, both forks of BC-3 among them:
//
//   - a restart: the journal (checkpointing every few events) is closed
//     and replayed into a fresh Scheduler with a fresh lockstep driver,
//     which must land on the pre-crash fingerprint, checkpoint image
//     (plan and driver state included) and naive active policy, and the
//     stream continues on it;
//   - a quote, whose twin plans with a lockstep driver from the quote
//     factory and must have continued from the live tuner's state, and
//     whose answer must equal that of a naive twin run forward from the
//     same image;
//   - one batch completing a job and submitting another at the same later
//     instant.
func runDeliverLockstep(t *testing.T, newDriver lockstepFactory, lanes *plantest.Lanes, data []byte) {
	path := filepath.Join(t.TempDir(), "events.journal")
	var (
		s         *Scheduler
		j         *Journal
		live, tw  *sim.DynP
		ref       *plantest.Tuner
		twinMaker = func() sim.Driver {
			drv, d, _ := newDriver()
			tw = d
			return drv
		}
	)
	start := func() {
		var drv sim.Driver
		drv, live, ref = newDriver()
		var err error
		if s, err = New(plantest.Capacity, drv, 0); err != nil {
			t.Fatal(err)
		}
		if j, err = OpenJournal(path); err != nil {
			t.Fatal(err)
		}
		j.SetSnapshotEvery(4)
		j.SetKeep(1)
		if _, err = j.Replay(s); err == nil {
			err = s.SetJournal(j)
		}
		if err == nil {
			err = s.EnableQuotes(twinMaker)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	start()
	defer func() { j.Close() }()

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		width, est := plantest.SubmitShape(arg)
		sub := []Submission{{Width: width, Estimate: est}}
		st := s.Status()
		var err error
		switch op % 8 {
		case 0, 1, 2:
			_, err = s.Deliver(st.Now, nil, sub)
		case 3:
			_, err = s.Deliver(st.Now+7*int64(arg), nil, nil)
		case 4:
			if n := len(st.Running); n > 0 {
				_, err = s.Deliver(st.Now, []job.ID{st.Running[int(arg)%n].ID}, nil)
			}
		case 5:
			if n := len(st.Waiting); n > 0 {
				if err = s.Cancel(st.Waiting[int(arg)%n].ID); err == nil && arg >= 128 {
					_, err = s.Submit(width, est)
				}
			}
		case 6:
			if eff := st.Capacity - st.FailedProcs; arg%2 == 0 && eff > 0 {
				err = s.Fail(1 + int(arg/2)%eff)
			} else if st.FailedProcs > 0 {
				err = s.Restore(1 + int(arg/2)%st.FailedProcs)
			}
		case 7:
			switch arg % 4 {
			case 0:
				want, wantImage := fingerprint(t, s), checkpointImage(t, s)
				var wantActive policy.Policy
				if ref != nil {
					wantActive = ref.Active
				}
				if err = j.Close(); err != nil {
					break
				}
				start()
				if got := fingerprint(t, s); got != want {
					t.Fatalf("event %d: replayed state diverges\nlive:     %s\nreplayed: %s", i/2, want, got)
				}
				if got := checkpointImage(t, s); got != wantImage {
					t.Fatalf("event %d: replayed checkpoint image diverges\nlive:     %s\nreplayed: %s", i/2, wantImage, got)
				}
				if ref != nil && ref.Active != wantActive {
					t.Fatalf("event %d: naive tuner restarted on %v, want %v", i/2, ref.Active, wantActive)
				}
			case 1:
				count := 1 + int(arg/4)%3
				tw = nil
				plans := lanes.Stopped + lanes.Whole
				img := s.img.Load()
				var qs []Quote
				if qs, err = s.quoteIn(img, width, est, count); err == nil && len(qs) != count {
					t.Fatalf("event %d: %d quotes for %d replicas", i/2, len(qs), count)
				}
				if tw != nil && live != nil {
					twinPlans := lanes.Stopped + lanes.Whole - plans
					if got, want := tw.Stats().Steps, live.Stats().Steps+twinPlans; got != want {
						t.Fatalf("event %d: twin tuner took %d steps after %d plans, want the live tuner's %d plus them",
							i/2, got, twinPlans, live.Stats().Steps)
					}
				}
				if err == nil {
					if want := naiveQuotes(t, img, ref, width, est, count); !slices.Equal(qs, want) {
						t.Fatalf("event %d: twin quoted %+v, the naive twin %+v", i/2, qs, want)
					}
				}
			default:
				at := st.Now + int64(arg)
				var done []job.ID
				if n := len(st.Running); n > 0 {
					if r := st.Running[int(arg)%n]; r.Started+r.Estimate > at { // still running then
						done = []job.ID{r.ID}
					}
				}
				_, err = s.Deliver(at, done, sub)
			}
		}
		if err == nil {
			err = s.CheckInvariants()
		}
		if err != nil {
			t.Fatalf("after event %d (op %d): %v", i/2, op%8, err)
		}
		checkStatusOrder(t, fmt.Sprintf("event %d (op %d)", i/2, op%8), s)
	}
}

// naiveTwin is a quote twin's driver made of the oracle alone: every
// plan is plantest.Plan under a fixed policy or, with a tuner, a naive
// tuner step.
type naiveTwin struct {
	pol   policy.Policy
	tuner *plantest.Tuner
}

func (d *naiveTwin) Name() string { return "naive" }

func (d *naiveTwin) ActivePolicy() policy.Policy {
	if d.tuner != nil {
		return d.tuner.Active
	}
	return d.pol
}

func (d *naiveTwin) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	if d.tuner == nil {
		return plantest.Plan(now, capacity, running, waiting, d.pol)
	}
	_, sched := d.tuner.Step(now, capacity, running, waiting)
	return sched
}

// naiveQuotes runs a twin from img on a naiveTwin (BC-3's quote fork):
// it starts from the image's active policy — with ref, the live naive
// tuner, as a naive tuner of the same decider, which the streams keep
// stateless — and so needs none of the driver state the image carries.
func naiveQuotes(t *testing.T, img *image, ref *plantest.Tuner, width int, estimate int64, count int) []Quote {
	t.Helper()
	active, err := policy.Lookup(img.active)
	if err != nil {
		t.Fatal(err)
	}
	drv := &naiveTwin{pol: active}
	if ref != nil {
		drv.tuner = &plantest.Tuner{Candidates: ref.Candidates, Decider: ref.Decider, Metric: ref.Metric, Active: active}
	}
	bare := *img
	bare.Driver = nil
	qs, err := runTwin(&bare, drv, width, estimate, count)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// checkStatusOrder holds Status to its order contract, read directly and
// through the protocol: waiting jobs by planned start, running jobs by
// start time, ties by ID in both.
func checkStatusOrder(t *testing.T, when string, s *Scheduler) {
	t.Helper()
	direct := s.Status()
	var out bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{strings.NewReader(`{"op":"status"}` + "\n"), &out}
	if err := NewServer(s, true).ServeConn(rw); err != nil {
		t.Fatalf("%s: status over ServeConn: %v", when, err)
	}
	var resp Response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil || resp.Status == nil {
		t.Fatalf("%s: status over ServeConn: %v (%s)", when, err, out.Bytes())
	}
	if !reflect.DeepEqual(*resp.Status, direct) {
		t.Fatalf("%s: status over ServeConn differs from the direct one\nwire:   %+v\ndirect: %+v", when, *resp.Status, direct)
	}
	for _, l := range []struct {
		name string
		jobs []JobInfo
		key  func(JobInfo) int64
	}{
		{"waiting", direct.Waiting, func(j JobInfo) int64 { return j.PlannedStart }},
		{"running", direct.Running, func(j JobInfo) int64 { return j.Started }},
	} {
		for k := 1; k < len(l.jobs); k++ {
			a, b := l.jobs[k-1], l.jobs[k]
			if l.key(a) > l.key(b) || l.key(a) == l.key(b) && a.ID >= b.ID {
				t.Fatalf("%s: %s job %d (at %d) listed before job %d (at %d)", when, l.name, a.ID, l.key(a), b.ID, l.key(b))
			}
		}
	}
}

// checkpointImage is what a checkpoint of s would hold — plan and
// driver state included — as JSON.
func checkpointImage(t *testing.T, s *Scheduler) string {
	s.mu.Lock()
	cs, err := s.captureCheckpointLocked(0)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&cs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeliverLockstep holds the daemon to BC-1, BC-2 and BC-3: the seeded
// streams of the simulator's lockstep tests, through Deliver, Submit,
// Cancel, Fail, Restore, journal restarts and quote twins, under a static
// driver and two self-tuning ones. Some plan must have been handed a
// withheld job rejoining the queue out of order, and every stream must
// have restarted and quoted. After every event, restarts included, Status
// must keep its order contract, read directly and over ServeConn.
func TestDeliverLockstep(t *testing.T) {
	var lanes plantest.Lanes
	static := func() (sim.Driver, *sim.DynP, *plantest.Tuner) {
		return plantest.Lockstep(t, &sim.Static{Policy: policy.SJF}, &lanes), nil, nil
	}
	tuner := func(newDecider func() core.Decider) lockstepFactory {
		return func() (sim.Driver, *sim.DynP, *plantest.Tuner) {
			d := sim.NewDynP(newDecider())
			ref := plantest.NewTuner(newDecider(), core.MetricSLDwA)
			return plantest.TunerLockstep(t, d, d.Tuner, ref, &lanes), d, ref
		}
	}
	for seed := uint64(0); seed < 3; seed++ {
		data := plantest.Stream(seed)
		var restarts, quotes int
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]%8 == 7 && data[i+1]%4 == 0 {
				restarts++
			} else if data[i]%8 == 7 && data[i+1]%4 == 1 {
				quotes++
			}
		}
		if restarts == 0 || quotes == 0 {
			t.Fatalf("stream %d restarts %d times and quotes %d times; it must do both", seed, restarts, quotes)
		}
		for _, newDriver := range []lockstepFactory{
			static,
			tuner(func() core.Decider { return core.Preferred{Policy: policy.SJF} }),
			tuner(func() core.Decider { return core.Advanced{} }),
		} {
			runDeliverLockstep(t, newDriver, &lanes, data)
		}
	}
	if lanes.Rejoined == 0 {
		t.Error("no plan was handed a job rejoining the queue out of order; the streams must reach it")
	}
}
