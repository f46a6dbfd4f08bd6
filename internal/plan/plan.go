// Package plan builds full schedules the way a planning-based resource
// management system does: every waiting job receives a planned start time
// at the earliest hole in the availability profile that fits its width for
// its full estimated run time, visiting jobs in the active policy's order.
// Backfilling is implicit — a short narrow job later in the order may slip
// into a gap before a wide job earlier in the order, but never delays it,
// because the wide job's reservation is already fixed.
//
// The same code path serves two purposes: the executing scheduler derives
// actual start times from the plan, and the self-tuning dynP step builds
// three hypothetical ("what-if") schedules, one per candidate policy, to
// score them against each other.
package plan

import (
	"fmt"
	"sync"

	"dynp/internal/job"
	"dynp/internal/policy"
	"dynp/internal/profile"
)

// Running describes a job currently executing on the machine. Its
// processors stay reserved until Start+Estimate — the planner must assume
// the estimate is exhausted; an earlier actual completion simply triggers
// the next replanning event.
type Running struct {
	Job   *job.Job
	Start int64
}

// EstimatedEnd returns the planner-visible completion time.
func (r Running) EstimatedEnd() int64 { return r.Job.EstimatedEnd(r.Start) }

// Entry is one waiting job with its planned start time.
type Entry struct {
	Job   *job.Job
	Start int64
}

// Schedule is a full plan: a start time for every waiting job, given the
// machine state at time Now.
type Schedule struct {
	Now      int64
	Capacity int
	Policy   policy.Policy
	Entries  []Entry // in placement (policy) order

	// Fused scoring state: the builders accumulate every metric's sums in
	// the placement pass, so the Planned* accessors need not re-walk the
	// entries. Schedules assembled by hand (entry-by-entry, e.g. the EASY
	// driver's) leave scored false and the accessors fall back to walking.
	scored   bool
	sums     aggregates
	released bool // guards double-Release of pooled storage
}

// aggregates holds the per-metric running sums of one placement pass. The
// accumulation expressions and their order mirror the Planned* walking
// loops exactly, so fused and walked scores are byte-identical.
type aggregates struct {
	sldNum, sldDen     float64 // PlannedSLDwA
	artSum             float64 // PlannedART
	artwwNum, artwwDen float64 // PlannedARTwW
	awtSum             float64 // PlannedAWT
	maxEnd             int64   // PlannedMakespan (0 when no entries)
}

// accumulate folds one placed entry into the running sums.
func (a *aggregates) accumulate(j *job.Job, start int64) {
	area := float64(j.EstimatedArea())
	sld := float64(start-j.Submit+j.Estimate) / float64(j.Estimate)
	a.sldNum += area * sld
	a.sldDen += area
	a.artSum += float64(start - j.Submit + j.Estimate)
	w := float64(j.Width)
	a.artwwNum += w * float64(start-j.Submit+j.Estimate)
	a.artwwDen += w
	a.awtSum += float64(start - j.Submit)
	if end := j.EstimatedEnd(start); end > a.maxEnd {
		a.maxEnd = end
	}
}

// Base is the reusable starting state of schedule construction at one
// scheduling event: the availability profile with every running job's
// reservation already applied. The self-tuning dynP step builds it once
// per event and derives each candidate policy's what-if schedule from a
// clone, instead of re-allocating the running jobs once per candidate.
// A Base is never mutated after construction, so any number of
// BuildFromOrdered calls — including concurrent ones — may share it.
type Base struct {
	Now      int64
	Capacity int
	prof     *profile.Profile
}

// The hot-path arenas. One planning step builds a base profile, one
// candidate profile clone per policy, and one Schedule (with its Entry
// slice) per policy — at every scheduling event, over a full SWF trace.
// The pools let that storage cycle instead of being reallocated: candidate
// profiles are returned the moment a build finishes, losing candidate
// schedules after scoring, the schedule a driver handed out when its next
// one replaces it (see Schedule.Release), base profiles once the step's
// candidates are built (see Base.Release). sync.Pool is safe for
// concurrent simulations sharing the package-level pools.
var (
	profilePool  = sync.Pool{New: func() any { return new(profile.Profile) }}
	schedulePool = sync.Pool{New: func() any { return new(Schedule) }}
	basePool     = sync.Pool{New: func() any { return new(Base) }}
)

// BuildBasePooled constructs the shared planning state for one scheduling
// event — running jobs block their processors until their estimated end —
// on storage drawn from the package pools. The caller owns the result and
// must call Release exactly once when no builds derived from it can run
// anymore; until then the Base must stay alive (BuildFromOrdered clones
// it per candidate).
func BuildBasePooled(now int64, capacity int, running []Running) *Base {
	b := basePool.Get().(*Base)
	prof := profilePool.Get().(*profile.Profile)
	prof.Reset(capacity, now)
	for _, r := range running {
		if rem := r.EstimatedEnd() - now; rem > 0 {
			prof.Alloc(now, r.Job.Width, rem)
		}
	}
	b.Now, b.Capacity, b.prof = now, capacity, prof
	return b
}

// Release returns the base's storage to the arena. Only the owner of the
// Base may call it, and only once; the Base is invalid afterwards.
func (b *Base) Release() {
	if b.prof == nil {
		panic("plan: Base released twice")
	}
	profilePool.Put(b.prof)
	b.prof = nil
	basePool.Put(b)
}

// Profile returns a copy of the base availability profile, the caller's
// to mutate: the EASY driver backfills on one.
func (b *Base) Profile() *profile.Profile { return b.prof.Clone() }

// BuildFromOrdered computes the schedule for a waiting queue that is
// already in policy p's order (policy.Order's output, or an incrementally
// maintained view of it — see policy.Views), starting from a clone of the
// base profile. The base is not modified, so sibling candidate builds may
// run concurrently from the same base; the ordered slice is not modified
// and must not change while the build runs. All scratch storage comes from
// the package pools: the candidate profile clone goes back before
// BuildFromOrdered returns and the caller owns the returned Schedule; if
// it never escapes, Release recycles it.
//
// This is the one placement loop of the tree. Metric sums are accumulated
// in the same pass (see aggregates), so scoring the result re-walks
// nothing. Each hole search starts not at now but at the latest start the
// build's earlier placements prove no such job can beat (see witness.go);
// the result is the same earliest fit either way.
func BuildFromOrdered(b *Base, ordered []*job.Job, p policy.Policy) *Schedule {
	prof := profilePool.Get().(*profile.Profile)
	b.prof.CloneInto(prof)
	s := schedulePool.Get().(*Schedule)
	entries := s.Entries[:0]
	if entries == nil || cap(entries) < len(ordered) {
		// Always non-nil, even for an empty queue: nil and empty differ
		// to reflect.DeepEqual and encoding/json, and no reader of a
		// schedule should have to care which it got.
		entries = make([]Entry, 0, len(ordered))
	}
	*s = Schedule{Now: b.Now, Capacity: b.Capacity, Policy: p,
		Entries: entries,
		scored:  true,
	}
	var proven witnesses // per build: a witness says nothing about another profile
	for _, j := range ordered {
		from := proven.bound(b.Now, j.Width, j.Estimate)
		start, depth := prof.PlaceDepth(from, j.Width, j.Estimate)
		if depth >= witnessMinDepth && start > from {
			proven.record(j.Width, j.Estimate, start)
		}
		s.Entries = append(s.Entries, Entry{Job: j, Start: start})
		s.sums.accumulate(j, start)
	}
	profilePool.Put(prof)
	return s
}

// ReleaseSchedules releases every non-nil schedule in ss and nils the
// slots, for owners discarding a whole batch of pooled builds at once —
// the self-tuner hands it one step's candidates with the chosen slot
// already nilled. The slots are nilled so a second sweep over the same
// slice cannot double-release.
func ReleaseSchedules(ss []*Schedule) {
	for i, s := range ss {
		if s != nil {
			s.Release()
			ss[i] = nil
		}
	}
}

// Release returns a schedule's storage (the Entry slice and the Schedule
// struct itself) to the pool. Only the builder's owner may call it, and
// only when no reader is left: the self-tuner releases the losing what-if
// candidates after scoring, which never escape it, and every planning
// driver releases the schedule its previous Plan returned once the next
// Plan has built a different one — the moment the engine.Driver contract
// ends the caller's claim on it. Double release panics; the entries are
// wiped (which also keeps a pooled schedule from pinning finished jobs),
// so a reader that outlived its claim finds Released true and nil jobs
// rather than a plausible stale plan. The release-exactly-once discipline
// (enforced by the double-release panics here and in Base.Release) is
// what keeps an arena from serving two owners at once.
func (s *Schedule) Release() {
	if s.released {
		panic("plan: Schedule released twice")
	}
	s.released = true
	clear(s.Entries)
	schedulePool.Put(s)
}

// Released reports whether the schedule has gone back to the pool and
// must not be read anymore. The engine's invariant check and Verify use
// it to turn a use-after-recycle into an error instead of a silently
// wrong plan.
func (s *Schedule) Released() bool { return s.released }

// PlannedSLDwA is the slowdown weighted by job area of the planned
// schedule, using estimates as the run time (the only run time the planner
// can see). It is the paper's headline decision metric: SLDwA =
// sum(a_i*s_i)/sum(a_i) with a_i the estimated area and s_i =
// (wait_i+estimate_i)/estimate_i. An empty plan scores 0.
func (s *Schedule) PlannedSLDwA() float64 {
	num, den := s.sums.sldNum, s.sums.sldDen
	if !s.scored {
		for _, e := range s.Entries {
			a := float64(e.Job.EstimatedArea())
			sld := float64(e.Start-e.Job.Submit+e.Job.Estimate) / float64(e.Job.Estimate)
			num += a * sld
			den += a
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PlannedART is the average planned response time (wait + estimate) of the
// waiting jobs. An empty plan scores 0.
func (s *Schedule) PlannedART() float64 {
	if len(s.Entries) == 0 {
		return 0
	}
	sum := s.sums.artSum
	if !s.scored {
		for _, e := range s.Entries {
			sum += float64(e.Start - e.Job.Submit + e.Job.Estimate)
		}
	}
	return sum / float64(len(s.Entries))
}

// PlannedARTwW is the planned average response time weighted by job width,
// which the paper notes is proportional to SLDwA for a fixed job set.
// An empty plan scores 0.
func (s *Schedule) PlannedARTwW() float64 {
	num, den := s.sums.artwwNum, s.sums.artwwDen
	if !s.scored {
		for _, e := range s.Entries {
			w := float64(e.Job.Width)
			num += w * float64(e.Start-e.Job.Submit+e.Job.Estimate)
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PlannedAWT is the average planned waiting time. An empty plan scores 0.
func (s *Schedule) PlannedAWT() float64 {
	if len(s.Entries) == 0 {
		return 0
	}
	sum := s.sums.awtSum
	if !s.scored {
		for _, e := range s.Entries {
			sum += float64(e.Start - e.Job.Submit)
		}
	}
	return sum / float64(len(s.Entries))
}

// PlannedMakespan is the latest estimated completion time over the waiting
// entries, as an offset from Now (so schedules at different instants are
// comparable). An empty plan scores 0.
func (s *Schedule) PlannedMakespan() float64 {
	end := s.MaxEstimatedEnd()
	if end == 0 {
		return 0
	}
	return float64(end - s.Now)
}

// MaxEstimatedEnd returns the latest estimated completion time over the
// entries, 0 when there are none (PlannedMakespan's convention).
func (s *Schedule) MaxEstimatedEnd() int64 {
	if s.scored {
		return s.sums.maxEnd
	}
	var end int64
	for _, e := range s.Entries {
		if t := e.Job.EstimatedEnd(e.Start); t > end {
			end = t
		}
	}
	return end
}

// Verify checks that the schedule is the one planning produces: no entry
// starts before Now or before its submission, the profile including
// running jobs is never over-subscribed, and — taking the entries in
// placement order — every job sits at the earliest hole that fits it, not
// merely at a hole that fits. The search behind that last check starts at
// Now and uses plain profile.EarliestFit, sharing nothing with the
// builders' bounded search, so a start that is feasible but late (what an
// unsound search bound would produce) fails here. Static, dynP and EASY
// schedules all place in Entries order and satisfy it. A schedule that
// was released to the pool fails outright. It is used by tests and by the
// simulator's paranoid mode.
func (s *Schedule) Verify(running []Running) error {
	if s.released {
		return fmt.Errorf("plan: schedule at %d under %v was released to the pool", s.Now, s.Policy)
	}
	prof := profile.New(s.Capacity, s.Now)
	for _, r := range running {
		if rem := r.EstimatedEnd() - s.Now; rem > 0 {
			prof.Alloc(s.Now, r.Job.Width, rem)
		}
	}
	for _, e := range s.Entries {
		if e.Start < s.Now {
			return fmt.Errorf("plan: %s starts at %d before now %d", e.Job, e.Start, s.Now)
		}
		if e.Start < e.Job.Submit {
			return fmt.Errorf("plan: %s starts at %d before its submission", e.Job, e.Start)
		}
		switch got := prof.EarliestFit(s.Now, e.Job.Width, e.Job.Estimate); {
		case got > e.Start:
			return fmt.Errorf("plan: %s does not fit at %d (earliest %d)", e.Job, e.Start, got)
		case got < e.Start:
			return fmt.Errorf("plan: %s starts at %d, later than its earliest fit %d", e.Job, e.Start, got)
		}
		prof.Alloc(e.Start, e.Job.Width, e.Job.Estimate)
	}
	return nil
}
