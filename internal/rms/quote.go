// The digital-twin quote service: "when will my job start?" answered at
// high QPS without touching live scheduling state.
//
// A quote is a checkpoint restore: the published image is a checkpoint
// without its event count or transition counts — the clock, the next ID,
// the failed processors, the live jobs and the driver's decision state,
// captured as a value — so the quote hands it as it is to fork.state,
// the step journal replay takes, resets a warm twin (an engine and a
// driver from the quote factory, kept from quote to quote) to it, then
// injects the hypothetical job(s) and runs the twin forward, one
// estimate expiry at a time as the daemon does, through kills, launches
// and self-tuning policy switches until every hypothetical has started.
// The twin never shares mutable state with the live engine: its jobs
// are made from the image's JobInfos into an arena of its own, and the
// tuner's decision state is the value the image captured under the
// scheduling lock, which restoring copies. Quotes therefore read like
// any other image consumer — a storm of them never delays a mutator —
// and the twin's forward run is honest: on a quiescent scheduler the
// quoted start equals the realized start of the same job submitted for
// real (see TestQuoteHonesty and DESIGN.md §15 for the argument).
package rms

import (
	"fmt"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/sim"
)

// MaxQuoteBatch bounds count in a single quote: one twin run simulates
// at most this many hypothetical replicas.
const MaxQuoteBatch = 1024

// Quote is the predicted schedule of one hypothetical job under the
// scheduler's current state and active policy. Start, Finish and Wait
// are NeverStart when the job can never be placed at the current
// effective capacity. Finish is the planning bound start+estimate — the
// instant the RMS would kill the job, and the latest it can end.
type Quote struct {
	Width    int   `json:"width"`
	Estimate int64 `json:"estimate"`
	Start    int64 `json:"start"`
	Finish   int64 `json:"finish"`
	Wait     int64 `json:"wait"`
}

// EnableQuotes switches the quote service on: newDriver must build a
// fresh driver of the same configuration as the live one (dynpd passes
// its scheduler spec's factory), so a twin restored from the live
// tuner's state makes identical decisions. A twin keeps its driver from
// one quote to the next, so what the driver plans must depend only on
// what Plan is handed and, for a core.Tuned driver, the decision state
// each quote restores, as with sim.Static, sim.DynP and sim.EASY. From
// the next publish on, every image additionally captures the driver's
// decision state; schedulers that never enable quotes keep paying
// nothing for it.
func (s *Scheduler) EnableQuotes(newDriver func() sim.Driver) error {
	if newDriver == nil {
		return fmt.Errorf("rms: EnableQuotes: nil driver factory")
	}
	probe := newDriver()
	if probe == nil {
		return fmt.Errorf("rms: EnableQuotes: driver factory returned nil")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if probe.Name() != s.driver.Name() {
		return fmt.Errorf("rms: EnableQuotes: factory builds %q, live scheduler is %q",
			probe.Name(), s.driver.Name())
	}
	s.twinMu.Lock()
	s.quoteNew, s.twins = newDriver, nil
	s.twinMu.Unlock()
	s.quotesOn.Store(true)
	s.publish()
	return nil
}

// Quote predicts when a hypothetical job (width processors, estimate
// seconds) would start, finish and wait if submitted right now, without
// submitting it and without perturbing live scheduling. count > 1 asks
// for the schedule of count replicas submitted back to back; the i-th
// returned Quote is the i-th replica's. A job wider than the current
// effective capacity gets the NeverStart sentinel in all three fields.
//
// Quote never takes the scheduling lock: it forks the published image
// into a digital twin and runs the twin forward under the live tuner's
// decision state. It is safe for any number of concurrent callers.
func (s *Scheduler) Quote(width int, estimate int64, count int) ([]Quote, error) {
	return s.quoteIn(s.img.Load(), width, estimate, count)
}

// quoteIn answers a quote from img, whose clock its Wait is measured
// from.
func (s *Scheduler) quoteIn(img *image, width int, estimate int64, count int) ([]Quote, error) {
	if !s.quotesOn.Load() {
		return nil, fmt.Errorf("rms: quotes not enabled on this scheduler")
	}
	if count == 0 {
		count = 1
	}
	if count < 1 || count > MaxQuoteBatch {
		return nil, fmt.Errorf("rms: quote count %d out of [1, %d]", count, MaxQuoteBatch)
	}
	effective := img.capacity - img.Failed
	if err := checkShape(width, estimate, img.capacity, effective); err != nil {
		return nil, err
	}
	// A failed journal refuses every mutation, so a quote would predict a
	// future no submission can reach; refuse it for the same reason.
	if err := s.JournalErr(); err != nil {
		return nil, fmt.Errorf("rms: quotes unavailable: %w", err)
	}
	if img.driverErr != nil {
		return nil, fmt.Errorf("rms: quote: capturing driver state: %w", img.driverErr)
	}
	if width > effective {
		// Unplaceable at the current effective capacity: the twin would
		// queue it forever. Answer with the sentinel instead of running.
		return neverQuotes(width, estimate, count), nil
	}
	tw := s.takeTwin(img.capacity)
	out, err := tw.run(img, width, estimate, count)
	if err == nil {
		s.putTwin(tw) // a twin that failed midway is dropped
	}
	return out, err
}

// neverQuotes returns count quotes of jobs that never start.
func neverQuotes(width int, estimate int64, count int) []Quote {
	out := make([]Quote, count)
	for i := range out {
		out[i] = Quote{Width: width, Estimate: estimate,
			Start: NeverStart, Finish: NeverStart, Wait: NeverStart}
	}
	return out
}

// A twin is a warm quote twin: an engine, the driver it plans with and
// the fork it restores images through, kept from one quote to the next
// (Scheduler.takeTwin). Restoring an image resets them in place, so a
// quote allocates little, and the driver's lane follows what changed
// since the twin's last quote — the order views stay sorted — instead of
// building them from nothing.
type twin struct {
	eng  *engine.Engine
	drv  sim.Driver
	fork fork

	// The quote under way, which the engine's Started hook fills in.
	out     []Quote
	hypBase job.ID
	from    int64 // the image's clock, which waits are measured from
	started int
}

// newTwin returns a twin of a capacity-processor machine planning with
// drv.
func newTwin(capacity int, drv sim.Driver) *twin {
	tw := &twin{drv: drv}
	tw.eng = engine.New(capacity, drv, 0, engine.WithHooks(engine.Hooks{
		Started: func(j *job.Job, now int64) {
			if q := j.ID - tw.hypBase - 1; q >= 0 && int(q) < len(tw.out) {
				tw.out[q].Start, tw.out[q].Finish = now, now+tw.out[q].Estimate
				tw.out[q].Wait = now - tw.from
				tw.started++
			}
		},
	}))
	return tw
}

// takeTwin hands out an idle warm twin, or a new one planning with a
// driver from the quote factory; putTwin takes it back. One twin serves
// one quote at a time, so there are as many as quotes ever ran at once.
// EnableQuotes drops the idle ones, so a new factory's drivers plan the
// quotes that start after it.
func (s *Scheduler) takeTwin(capacity int) *twin {
	s.twinMu.Lock()
	defer s.twinMu.Unlock()
	if n := len(s.twins); n > 0 {
		tw := s.twins[n-1]
		s.twins = s.twins[:n-1]
		return tw
	}
	return newTwin(capacity, s.quoteNew())
}

func (s *Scheduler) putTwin(tw *twin) {
	s.twinMu.Lock()
	defer s.twinMu.Unlock()
	s.twins = append(s.twins, tw)
}

// run restores the image, as a checkpoint, into the twin, injects count
// hypothetical jobs, and runs the twin forward until they all started.
func (tw *twin) run(img *image, width int, estimate int64, count int) ([]Quote, error) {
	st, err := tw.fork.state(tw.eng, tw.drv, &img.checkpointState, img.tuner, false)
	if err == nil {
		err = tw.eng.Reset(st)
	}
	if err != nil {
		return nil, fmt.Errorf("rms: quote: %w", err)
	}
	// The hypotheticals take the IDs the next real submissions would,
	// preserving every policy tie-break against the live jobs.
	tw.out, tw.hypBase, tw.from, tw.started = neverQuotes(width, estimate, count), job.ID(img.NextID), img.Now, 0

	// Inject the hypotheticals one by one, each with its own replanning
	// step, mirroring real back-to-back submissions.
	for i := range count {
		tw.eng.Submit(tw.fork.newJob(job.Job{ID: tw.hypBase + 1 + job.ID(i), Submit: img.Now,
			Width: width, Estimate: estimate, Runtime: estimate}))
		if err := tw.eng.Replan(); err != nil {
			return nil, fmt.Errorf("rms: quote: twin replan: %w", err)
		}
	}

	// Run forward one expiry at a time, the daemon's own forward rule,
	// until every hypothetical started or nothing runs (the rest never
	// start). The loop ends: each pass kills at least one job, and only
	// the twin's finite queue can start.
	for tw.started < count {
		next, ok := tw.eng.NextExpiry()
		if !ok {
			break
		}
		if err := tw.eng.AdvanceTo(next, false); err != nil {
			return nil, fmt.Errorf("rms: quote: twin advance: %w", err)
		}
	}
	return tw.out, nil
}
