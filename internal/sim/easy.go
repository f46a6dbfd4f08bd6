package sim

import (
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// EASY is a queueing-based scheduler with aggressive (EASY) backfilling,
// the classic contrast to the planning-based dynP approach (reference [6]
// of the paper compares the two paradigms). The queue is ordered by a base
// policy (FCFS in the original EASY); only the queue head receives a
// reservation, and any later job may start immediately if it fits beside
// the running jobs without delaying that single reservation — unlike the
// planner, which gives every waiting job a start time and therefore
// backfills conservatively.
type EASY struct {
	// Base orders the queue; the original EASY scheduler uses FCFS.
	Base policy.Policy

	reserved plan.Base // the running jobs' reservations, reset per Plan
}

// Name implements Driver.
func (e *EASY) Name() string {
	if e.Base == policy.FCFS {
		return "EASY"
	}
	return "EASY/" + e.Base.Name()
}

// ActivePolicy implements Driver.
func (e *EASY) ActivePolicy() policy.Policy { return e.Base }

// Plan implements Driver. The returned schedule starts backfillable jobs
// now and gives the head its reservation; jobs the backfill pass rejects
// are placed conservatively afterwards so that the schedule stays feasible
// (the engine only acts on entries starting now, so those placements never
// bind).
func (e *EASY) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	e.reserved.Reset(now, capacity, running)
	prof := e.reserved.Profile()
	s := &plan.Schedule{Now: now, Capacity: capacity, Policy: e.Base,
		Entries: make([]plan.Entry, 0, len(waiting))}

	queue := policy.Order(e.Base, waiting)
	if len(queue) == 0 {
		return s
	}

	// The head job: starts now if it fits, otherwise it gets the one
	// reservation EASY maintains (committed to the profile so backfill
	// candidates cannot delay it).
	head := queue[0]
	headStart := prof.Place(now, head.Width, head.Estimate)
	s.Entries = append(s.Entries, plan.Entry{Job: head, Start: headStart})

	// Aggressive backfilling: any later job may start immediately if it
	// fits beside the running jobs, the head reservation, and the jobs
	// already backfilled this round. Unlike the conservative planner,
	// rejected jobs impose no constraints — EASY promises them nothing —
	// so jobs arbitrarily deep in the queue can jump ahead.
	var rejected []*job.Job
	for _, j := range queue[1:] {
		if prof.EarliestFit(now, j.Width, j.Estimate) == now {
			prof.Alloc(now, j.Width, j.Estimate)
			s.Entries = append(s.Entries, plan.Entry{Job: j, Start: now})
			continue
		}
		rejected = append(rejected, j)
	}

	// The schedule contract wants a feasible start for every waiting
	// job, so rejected jobs receive nominal conservative placements in a
	// scratch profile after all real decisions are fixed. The engine
	// only acts on entries starting now; these placements never bind.
	rest := prof.Clone()
	for _, j := range rejected {
		start := rest.Place(now, j.Width, j.Estimate)
		s.Entries = append(s.Entries, plan.Entry{Job: j, Start: start})
	}
	return s
}
