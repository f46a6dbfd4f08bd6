// The digital-twin quote service: "when will my job start?" answered at
// high QPS without touching live scheduling state.
//
// A quote is a checkpoint restore: the published image is a checkpoint
// without its event count or transition counts — the clock, the next ID,
// the failed processors, the live jobs and the driver's decision state,
// captured as a value — so the quote hands it as it is to restoreEngine,
// the step journal replay takes, with a fresh engine and a fresh driver
// from the quote factory, then injects the hypothetical job(s) and runs the twin
// forward, one estimate expiry at a time as the daemon does, through
// kills, launches and self-tuning policy switches until every
// hypothetical has started. The twin never shares mutable state
// with the live engine: its jobs are rebuilt from the image's JobInfos
// into an arena of its own, and the tuner's decision state is the value
// the image captured under the scheduling lock, which restoring copies. Quotes therefore read
// like any other image consumer — a storm of them never delays a mutator
// — and the twin's forward run is honest: on a quiescent scheduler the
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
// tuner's state makes identical decisions. From the next publish on,
// every image additionally captures the driver's decision state;
// schedulers that never enable quotes keep paying nothing for it.
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
	s.quoteNew = newDriver
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
	return runTwin(img, s.quoteNew(), width, estimate, count)
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

// runTwin restores the image, as a checkpoint, into a fresh engine
// planning with drv, injects count hypothetical jobs, and runs the twin
// forward until they all started.
func runTwin(img *image, drv sim.Driver, width int, estimate int64, count int) ([]Quote, error) {
	// The hypotheticals take the IDs the next real submissions would,
	// preserving every policy tie-break against the live jobs.
	hypBase := job.ID(img.NextID)
	out := neverQuotes(width, estimate, count)
	started := 0
	eng := engine.New(img.capacity, drv, img.Now, engine.WithHooks(engine.Hooks{
		Started: func(j *job.Job, now int64) {
			if j.ID > hypBase {
				out[j.ID-hypBase-1] = Quote{Width: width, Estimate: estimate,
					Start: now, Finish: now + estimate, Wait: now - img.Now}
				started++
			}
		},
	}))
	if err := restoreEngine(eng, drv, &img.checkpointState, img.tuner, false); err != nil {
		return nil, fmt.Errorf("rms: quote: %w", err)
	}

	// Inject the hypotheticals one by one, each with its own replanning
	// step, mirroring real back-to-back submissions. Their arena is sized
	// once, so the pointers the engine holds stay stable.
	hyp := make([]job.Job, count)
	for i := range hyp {
		hyp[i] = job.Job{ID: hypBase + 1 + job.ID(i), Submit: img.Now, Width: width,
			Estimate: estimate, Runtime: estimate}
		eng.Submit(&hyp[i])
		if err := eng.Replan(); err != nil {
			return nil, fmt.Errorf("rms: quote: twin replan: %w", err)
		}
	}

	// Run forward one expiry at a time, the daemon's own forward rule,
	// until every hypothetical started or nothing runs (the rest never
	// start). The loop ends: each pass kills at least one job, and only
	// the twin's finite queue can start.
	for started < count {
		next, ok := eng.NextExpiry()
		if !ok {
			break
		}
		if err := eng.AdvanceTo(next, false); err != nil {
			return nil, fmt.Errorf("rms: quote: twin advance: %w", err)
		}
	}
	return out, nil
}
