// The digital-twin quote service: "when will my job start?" answered at
// high QPS without touching live scheduling state.
//
// A quote forks the scheduler's current state into a pooled twin — a
// fresh engine + driver seeded from the lock-free read snapshot — then
// injects the hypothetical job(s) and runs the twin forward through
// kills, launches and self-tuning policy switches until every
// hypothetical has started. The twin never shares mutable state with
// the live engine: jobs are rebuilt from the snapshot's JobInfos
// (exactly as checkpoint restore does), and the tuner's decision state
// travels as the serialized bytes the snapshot captured under the
// scheduling lock. Quotes therefore read like any other snapshot
// consumer — a storm of them never delays a mutator — and the twin's
// forward run is honest: on a quiescent scheduler the quoted start
// equals the realized start of the same job submitted for real (see
// TestQuoteHonesty and DESIGN.md §15 for the argument).
package rms

import (
	"fmt"
	"sort"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
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

// twin is one reusable digital-twin scratch state. The engine and
// driver are rebuilt per quote (a fresh driver restored from snapshot
// bytes is the only construction proven byte-identical to the live
// tuner's decisions); what the pool recycles is the O(live jobs)
// memory: the job arena the twin engine points into, the queue slices,
// and the started-time map. Exactly one release per acquire; a double
// release panics.
type twin struct {
	jobs     []job.Job // arena backing every *job.Job handed to the twin engine
	waiting  []*job.Job
	running  []plan.Running
	started  map[job.ID]int64 // hypothetical job ID -> realized twin start
	released bool
}

// acquireTwin takes a twin from the pool (or builds one) and counts it
// live for leak detection.
func (s *Scheduler) acquireTwin() *twin {
	s.twinsLive.Add(1)
	if tw, ok := s.twinPool.Get().(*twin); ok {
		tw.released = false
		return tw
	}
	return &twin{started: make(map[job.ID]int64)}
}

// release returns the twin's scratch state to the pool. Exactly once
// per acquire: releasing twice would let two concurrent quotes share an
// arena, so it panics loudly instead.
func (tw *twin) release(s *Scheduler) {
	if tw.released {
		panic("rms: quote twin released twice")
	}
	tw.released = true
	tw.jobs = tw.jobs[:0]
	tw.waiting = tw.waiting[:0]
	tw.running = tw.running[:0]
	for id := range tw.started {
		delete(tw.started, id)
	}
	s.twinPool.Put(tw)
	s.twinsLive.Add(-1)
}

// EnableQuotes switches the quote service on: newDriver must build a
// fresh driver of the same configuration as the live one (dynpd passes
// its scheduler spec's factory), so a twin restored from the live
// tuner's serialized state makes identical decisions. From the next
// publish on, every read snapshot additionally captures the driver's
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
	defer s.publish()
	if probe.Name() != s.driver.Name() {
		return fmt.Errorf("rms: EnableQuotes: factory builds %q, live scheduler is %q",
			probe.Name(), s.driver.Name())
	}
	s.quoteNew = newDriver
	s.quotesOn.Store(true)
	return nil
}

// Quote predicts when a hypothetical job (width processors, estimate
// seconds) would start, finish and wait if submitted right now, without
// submitting it and without perturbing live scheduling. count > 1 asks
// for the schedule of count replicas submitted back to back; the i-th
// returned Quote is the i-th replica's. A job wider than the current
// effective capacity gets the NeverStart sentinel in all three fields.
//
// Quote never takes the scheduling lock: it forks the latest read
// snapshot into a pooled digital twin and runs the twin forward under
// the live tuner's decision state. It is safe for any number of
// concurrent callers.
func (s *Scheduler) Quote(width int, estimate int64, count int) ([]Quote, error) {
	if !s.quotesOn.Load() {
		return nil, fmt.Errorf("rms: quotes not enabled on this scheduler")
	}
	if count == 0 {
		count = 1
	}
	if count < 1 || count > MaxQuoteBatch {
		return nil, fmt.Errorf("rms: quote count %d out of [1, %d]", count, MaxQuoteBatch)
	}
	snap := s.snap.Load()
	st := &snap.status
	if width < 1 || width > st.Capacity {
		return nil, fmt.Errorf("rms: width %d out of [1, %d] (effective capacity now %d)",
			width, st.Capacity, st.Capacity-st.FailedProcs)
	}
	if estimate < 1 {
		return nil, fmt.Errorf("rms: estimate %d < 1", estimate)
	}
	// A failed journal refuses every mutation, so a quote would predict a
	// future no submission can reach; refuse it for the same reason.
	if err := s.JournalErr(); err != nil {
		return nil, fmt.Errorf("rms: quotes unavailable: %w", err)
	}
	if snap.driverStateErr != nil {
		return nil, fmt.Errorf("rms: quote: capturing driver state: %w", snap.driverStateErr)
	}
	if width > st.Capacity-st.FailedProcs {
		// Unplaceable at the current effective capacity: the twin would
		// queue it forever. Answer with the sentinel instead of running.
		out := make([]Quote, count)
		for i := range out {
			out[i] = Quote{Width: width, Estimate: estimate,
				Start: NeverStart, Finish: NeverStart, Wait: NeverStart}
		}
		return out, nil
	}
	tw := s.acquireTwin()
	defer tw.release(s)
	return s.runTwin(tw, snap, width, estimate, count)
}

// QuoteTwinsLive reports the twins currently checked out of the pool; a
// quiescent scheduler always reads 0. It exists for leak tests and
// operational gauges.
func (s *Scheduler) QuoteTwinsLive() int64 { return s.twinsLive.Load() }

// runTwin seeds a twin engine from the snapshot, injects count
// hypothetical jobs, and runs the twin forward until they all started.
func (s *Scheduler) runTwin(tw *twin, snap *readSnapshot, width int, estimate int64, count int) ([]Quote, error) {
	st := &snap.status

	drv := s.quoteNew()
	if len(snap.driverState) > 0 {
		sd, ok := drv.(engine.StatefulDriver)
		if !ok {
			return nil, fmt.Errorf("rms: quote: snapshot carries driver state but %s cannot restore it", drv.Name())
		}
		if err := sd.RestoreState(snap.driverState); err != nil {
			return nil, fmt.Errorf("rms: quote: driver state: %w", err)
		}
	}

	// Rebuild the live jobs into the twin's arena, exactly as checkpoint
	// restore does: the run time is unknown online, so Runtime=Estimate
	// and the twin kills at the estimate — the same guarantee the real
	// RMS enforces. The arena never aliases live scheduler memory.
	need := len(st.Waiting) + len(st.Running) + count
	if cap(tw.jobs) < need {
		tw.jobs = make([]job.Job, 0, need)
	}
	mk := func(info JobInfo) *job.Job {
		tw.jobs = append(tw.jobs, job.Job{
			ID: info.ID, Submit: info.Submitted, Width: info.Width,
			Estimate: info.Estimate, Runtime: info.Estimate,
		})
		return &tw.jobs[len(tw.jobs)-1]
	}
	var maxID job.ID
	for _, info := range st.Waiting {
		tw.waiting = append(tw.waiting, mk(info))
		if info.ID > maxID {
			maxID = info.ID
		}
	}
	// The snapshot orders waiting jobs by planned start; the engine wants
	// submission order, which is ID order (IDs are issued monotonically).
	sort.Slice(tw.waiting, func(i, j int) bool { return tw.waiting[i].ID < tw.waiting[j].ID })
	for _, info := range st.Running {
		tw.running = append(tw.running, plan.Running{Job: mk(info), Start: info.Started})
		if info.ID > maxID {
			maxID = info.ID
		}
	}

	engOpts := []engine.Option{engine.WithHooks(engine.Hooks{
		Started: func(j *job.Job, now int64) {
			if j.ID > maxID {
				tw.started[j.ID] = now
			}
		},
	})}
	// Observer-driven deciders watch the engine they decide for, in the
	// twin exactly as in the live scheduler (see New).
	if dp, ok := drv.(*sim.DynP); ok {
		if o := dp.DeciderObserver(); o != nil {
			engOpts = append(engOpts, engine.WithObserver(o))
		}
	}
	eng := engine.New(st.Capacity, drv, st.Now, engOpts...)
	if err := eng.RestoreState(engine.State{
		Now:     st.Now,
		Failed:  st.FailedProcs,
		Waiting: tw.waiting,
		Running: tw.running,
	}); err != nil {
		return nil, fmt.Errorf("rms: quote: twin restore: %w", err)
	}

	// Inject the hypotheticals one by one, each with its own replanning
	// step, mirroring real back-to-back submissions. IDs continue past
	// the highest live ID, preserving every policy tie-break against the
	// live jobs — the real submission would draw an ID at least this
	// high, and all orderings only compare IDs, never read their value.
	hypBase := maxID
	for i := 0; i < count; i++ {
		tw.jobs = append(tw.jobs, job.Job{
			ID: hypBase + 1 + job.ID(i), Submit: st.Now, Width: width,
			Estimate: estimate, Runtime: estimate,
		})
		eng.Submit(&tw.jobs[len(tw.jobs)-1])
		if err := eng.Replan(); err != nil {
			return nil, fmt.Errorf("rms: quote: twin replan: %w", err)
		}
	}

	// Run forward until every hypothetical started (or provably never
	// will). Each pass processes the next automatic action; AdvanceTo's
	// stuck self-heal replans past infeasible instants, and the
	// strictly-after fallback steps over an instant that made no progress
	// at all. The generous cap only guards against a rogue registered
	// driver planning nonsense forever — every event starts or finishes a
	// job, so an honest run takes at most ~2 actions per job.
	limit := 4*need + 64
	for iters := 0; len(tw.started) < count; iters++ {
		if iters > limit {
			return nil, fmt.Errorf("rms: quote: twin did not converge within %d steps", limit)
		}
		next, ok := eng.NextActionTime(false)
		if !ok {
			break // drained with hypotheticals unplaced: never starts
		}
		prevNow, prevRun, prevWait := eng.Now(), len(eng.Running()), len(eng.Waiting())
		if err := eng.AdvanceTo(next, false); err != nil {
			return nil, fmt.Errorf("rms: quote: twin advance: %w", err)
		}
		if eng.Now() < next {
			eng.JumpTo(next)
		}
		if eng.Now() == prevNow && len(eng.Running()) == prevRun && len(eng.Waiting()) == prevWait {
			after, ok := eng.NextActionTime(true)
			if !ok {
				break
			}
			eng.JumpTo(after)
		}
	}

	out := make([]Quote, count)
	for i := range out {
		q := Quote{Width: width, Estimate: estimate,
			Start: NeverStart, Finish: NeverStart, Wait: NeverStart}
		if start, ok := tw.started[hypBase+1+job.ID(i)]; ok {
			q.Start = start
			q.Finish = start + estimate
			q.Wait = start - st.Now
		}
		out[i] = q
	}
	return out, nil
}
