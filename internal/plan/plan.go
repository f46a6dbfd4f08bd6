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
	"slices"

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
// machine state at time Now. A frontier build (Base.FrontierInto) leaves
// the jobs that cannot start at Now unplaced: Entries then holds only the
// placed prefix of the plan, and Complete places the rest. Verify, the
// Planned* accessors and MaxEstimatedEnd complete the plan themselves,
// then walk its entries.
type Schedule struct {
	Now      int64
	Capacity int
	Policy   policy.Policy
	Entries  []Entry // in placement (policy) order

	released bool  // superseded by its owner (see Release)
	rest     *Base // what Complete resumes from; nil once the plan is whole
}

// Base is the starting state of schedule construction at one scheduling
// event: the availability profile with every running job's reservation
// already applied. The self-tuning dynP step resets it once per event and
// derives each candidate policy's what-if schedule from it, instead of
// re-allocating the running jobs once per candidate. Its owner keeps it
// across events: Reset updates the base profile by what changed since the
// last event, and at steady state neither Reset nor BuildInto allocates.
// The base profile is never mutated by a build: each build places onto
// the scratch profile, a fresh copy of it, or onto a fork's copy of an
// earlier build (see BuildInto), which is why one Base serves one
// BuildInto at a time.
type Base struct {
	Now      int64
	Capacity int
	prof     profile.Profile // running jobs' reservations
	running  []Running       // the running set prof holds, in the caller's order
	scratch  profile.Profile // the copy of prof a build sharing no prefix places onto
	forks    []fork          // the current BuildInto's, in child order
	tail     tail            // what the last FrontierInto left unplaced

	// What the last Reset saw change since the one before, for Carry:
	// steady holds when it kept the capacity, did not move back in time
	// and every job that left the running set had run out its estimate
	// by Now; since is the earlier event's instant and joined the jobs
	// that joined the running set, a view of running.
	steady bool
	since  int64
	joined []Running
}

// tail is what a frontier build leaves for Complete besides the jobs it
// did not place, which its schedule holds (see FrontierInto): how many
// entries the complete plan has, and the witness table the build held.
// The profile is the base's scratch one.
type tail struct {
	of     *Schedule // the schedule the jobs belong to; nil once placed or superseded
	n      int
	proven witnesses
	// minWidth[k] is the narrowest width of the order under build from
	// job k on. The storage is kept across events.
	minWidth []int
}

// fork is where one schedule of a BuildInto resumes an earlier one's
// build: the state that build held after the first at placements, which
// the two orders share. The storage is kept across events.
type fork struct {
	child, parent, at int
	prof              profile.Profile
	proven            witnesses
}

// Reset makes b the base of a scheduling event at now on a machine of the
// given capacity: running jobs block their processors until their
// estimated end. A zero-value Base is valid.
//
// A Reset at the same or a later instant on the same capacity updates the
// profile the last one left instead of rebuilding it: it advances the
// profile's start to now, releases the jobs that left the running set and
// reserves the ones that joined, so it costs what changed rather than
// what runs. The two running sets are matched by Running value, walking
// both in order; a job the new set holds out of the old order is released
// and reserved again, which costs a little and changes nothing. The
// result is the profile a rebuild produces, step for step: every
// reservation starts at now, so a base profile has one step at now, one
// per distinct estimated end after it and no other, and Release drops the
// boundary of an end no running job has anymore.
func (b *Base) Reset(now int64, capacity int, running []Running) {
	if capacity != b.prof.Capacity() || now < b.prof.Start() {
		b.Now, b.Capacity, b.steady = now, capacity, false
		b.prof.Reset(capacity, now)
		b.reserve(running)
		b.running = append(b.running[:0], running...)
		return
	}
	b.since, b.Now, b.steady = b.Now, now, true
	b.prof.Advance(now)
	k := 0 // running[:k] matched the old set so far
	for _, r := range b.running {
		if k < len(running) && running[k] == r {
			k++
		} else if rem := r.EstimatedEnd() - now; rem > 0 {
			b.prof.Release(now, r.Job.Width, rem)
			b.steady = false
		}
	}
	b.reserve(running[k:])
	b.running = append(b.running[:0], running...)
	b.joined = b.running[k:]
}

// reserve blocks each running job's processors until its estimated end.
func (b *Base) reserve(running []Running) {
	for _, r := range running {
		if rem := r.EstimatedEnd() - b.Now; rem > 0 {
			b.prof.Alloc(b.Now, r.Job.Width, rem)
		}
	}
}

// Carry makes s the plan of ordered, the queue in prev's policy order, by
// carrying prev over instead of placing a job, and reports whether it
// could; when it could not, s holds nothing and must be rebuilt. prev
// must be a plan BuildInto made on this base before the last Reset and
// after the one before it; it may be released, and it may be s, which is
// then filtered in place. Otherwise prev is only read and s's entry
// storage is reused.
//
// It carries when the machine did nothing between the two events but
// follow prev: the last Reset kept the capacity, did not move back in
// time, and every job that left the running set had run out its
// estimate; every job that joined it started at the earlier instant and
// is one prev started then; every job prev started then joined it or
// has run out its estimate since; and ordered is prev's other jobs, in
// prev's order, each planned to start no earlier than Now. Then the new
// plan is prev without the jobs it started, entry for entry. The base
// profile from Now on is the earlier one with those jobs reserved where
// prev placed them, since every job that left ended by Now. So each
// remaining job meets, when its turn comes, at least what it met in
// prev's build and at most the whole of prev's plan, which fits: it
// still fits at its old start, and still not before (DESIGN.md §7).
func (b *Base) Carry(s, prev *Schedule, ordered []*job.Job) bool {
	if !b.steady {
		return false
	}
	entries := s.Entries[:0]
	if s != prev {
		entries = slices.Grow(entries, len(ordered))
	}
	kept, started := 0, 0
	for _, e := range prev.Entries {
		if e.Start == b.since {
			if slices.Contains(b.joined, Running{Job: e.Job, Start: e.Start}) {
				started++
			} else if e.Job.EstimatedEnd(e.Start) > b.Now {
				return false
			}
			continue
		}
		if kept == len(ordered) || ordered[kept] != e.Job || e.Start < b.Now {
			return false
		}
		entries = append(entries, e)
		kept++
	}
	if kept != len(ordered) || started != len(b.joined) {
		return false
	}
	if entries == nil {
		entries = []Entry{} // as open has it
	}
	*s = Schedule{Now: b.Now, Capacity: b.Capacity, Policy: prev.Policy, Entries: entries}
	return true
}

// BuildBasePooled returns a new Base reset to the given event.
//
// Deprecated: it allocates a Base per call; keep a Base and Reset it.
// It stays while benchmark/trace.go calls it (ROADMAP.md, item 2(a)).
func BuildBasePooled(now int64, capacity int, running []Running) *Base {
	b := new(Base)
	b.Reset(now, capacity, running)
	return b
}

// Release does nothing: a Base holds no storage anyone else shares.
//
// Deprecated: drop the call. It stays while benchmark/trace.go calls it
// (ROADMAP.md, item 2(a)).
func (b *Base) Release() {}

// Profile returns a copy of the base availability profile, the caller's
// to mutate: the EASY driver backfills on one.
func (b *Base) Profile() *profile.Profile { return b.prof.Clone() }

// BuildInto computes the schedules of one scheduling event: ss[i] receives
// the plan of orders[i], a waiting queue already in policies[i]'s order
// (policy.Order's output, or an incrementally maintained view of it — see
// policy.Views), reusing ss[i]'s entry storage. The schedules must be
// distinct. The base profile is not modified; the orders are not modified
// and must not change while the build runs. Whatever a schedule held
// before is overwritten, including a Release mark.
//
// The place method it calls is the one placement loop of the tree (its
// step, placeJob, is what FrontierInto and Complete run). Each hole
// search starts not at now but at the latest start the build's earlier
// placements prove no such job can beat (see witness.go); the result is
// the same earliest fit either way.
//
// Orders that begin with the same jobs place those jobs once. Each order
// resumes from the earlier one sharing its longest prefix, the earliest
// on a tie: it takes over the profile, witness table and entries that
// build held after the shared placements. All three depend only on the
// base and the jobs placed so far, so a resumed schedule is bit for bit
// the one a build from the base produces.
func (b *Base) BuildInto(ss []*Schedule, orders [][]*job.Job, policies []policy.Policy) {
	b.tail.of = nil // the scratch profile is about to be rebuilt
	b.findForks(orders)
	resumes := b.forks
	for i, ordered := range orders {
		s := ss[i]
		b.open(s, len(ordered), policies[i])
		// A witness says nothing about another profile, so the table
		// starts empty unless the profile is a resumed one.
		prof, proven, placed := &b.scratch, witnesses{}, 0
		if len(resumes) > 0 && resumes[0].child == i {
			f := &resumes[0]
			resumes = resumes[1:]
			prof, proven, placed = &f.prof, f.proven, f.at
			s.Entries = append(s.Entries, ss[f.parent].Entries[:placed]...)
		} else {
			b.prof.CloneInto(prof)
		}
		for next := b.nextFork(i, placed); next >= 0; next = b.nextFork(i, next+1) {
			b.place(s, prof, &proven, ordered[placed:next])
			b.hand(i, next, prof, proven)
			placed = next
		}
		b.place(s, prof, &proven, ordered[placed:])
	}
}

// open makes s an empty schedule of the base's event under p, with room
// for n entries in the storage it already has.
func (b *Base) open(s *Schedule, n int, p policy.Policy) {
	entries := slices.Grow(s.Entries[:0], n)
	if entries == nil {
		// Always non-nil, even for an empty queue: nil and empty differ
		// to reflect.DeepEqual and encoding/json, and no reader of a
		// schedule should have to care which it got.
		entries = []Entry{}
	}
	*s = Schedule{Now: b.Now, Capacity: b.Capacity, Policy: p, Entries: entries}
}

// FrontierInto builds s as BuildInto builds the plan of the one order,
// but only up to the launch frontier: before placing each job it stops
// unless a window as narrow as the narrowest job not yet placed and as
// short as the shortest one fits at Now. Placements only fill the
// profile, and every job from there on is at least that wide and that
// long, so none of them can start at Now. What starts at Now — the only
// part of a plan a launch reads — is therefore all in the placed prefix.
//
// The jobs not yet placed are copied into the schedule's entry storage
// past its length — the order is the caller's to change once the build
// returns, so it is not kept — each with the shortest estimate from it on
// as its start until it is placed there. The build's profile and witness
// table stay in the base, and Complete places the held jobs with the same
// loop BuildInto runs, so a completed schedule is bit for bit BuildInto's.
// The base's next build supersedes that state: Complete panics after it.
func (b *Base) FrontierInto(s *Schedule, ordered []*job.Job, p policy.Policy) {
	t, n := &b.tail, len(ordered)
	b.open(s, n, p)
	held := s.Entries[:n]
	t.minWidth = slices.Grow(t.minWidth[:0], n)[:n]
	for k := n - 1; k >= 0; k-- {
		j, w, d := ordered[k], ordered[k].Width, ordered[k].Estimate
		if k+1 < n {
			w, d = min(w, t.minWidth[k+1]), min(d, held[k+1].Start)
		}
		held[k], t.minWidth[k] = Entry{Job: j, Start: d}, w
	}
	b.prof.CloneInto(&b.scratch)
	t.of, t.n, t.proven = nil, n, witnesses{}
	for k := 0; k < n && b.scratch.FitsAt(b.Now, t.minWidth[k], held[k].Start); k++ {
		b.placeJob(s, &b.scratch, &t.proven, held[k].Job)
	}
	if len(s.Entries) < n {
		t.of, s.rest = s, b
	}
}

// Complete places the jobs a frontier build left unplaced (see
// FrontierInto), making the schedule the full plan; on a schedule that
// has none it does nothing. It panics when the schedule's base has built
// again since, or the schedule was released: the state the placements
// resume from is gone.
func (s *Schedule) Complete() {
	b := s.rest
	if b == nil {
		return
	}
	if s.released || b.tail.of != s {
		panic("plan: Complete on a schedule superseded by a later build")
	}
	s.rest, b.tail.of = nil, nil
	for _, e := range s.Entries[len(s.Entries):b.tail.n] {
		b.placeJob(s, &b.scratch, &b.tail.proven, e.Job)
	}
}

// place appends the placements of jobs, in order, to s, reserving them on
// prof and recording what they prove in proven.
func (b *Base) place(s *Schedule, prof *profile.Profile, proven *witnesses, jobs []*job.Job) {
	for _, j := range jobs {
		b.placeJob(s, prof, proven, j)
	}
}

// placeJob is one step of place.
func (b *Base) placeJob(s *Schedule, prof *profile.Profile, proven *witnesses, j *job.Job) {
	from := proven.bound(b.Now, j.Width, j.Estimate)
	start, depth := prof.PlaceDepth(from, j.Width, j.Estimate)
	if depth >= witnessMinDepth && start > from {
		proven.record(j.Width, j.Estimate, start)
	}
	s.Entries = append(s.Entries, Entry{Job: j, Start: start})
}

// findForks records, for every order after the first, the earlier order
// sharing its longest non-empty prefix, the earliest on a tie. Under that
// rule a child never forks inside the part its parent itself resumed
// from: were its prefix with the parent shorter than the parent's own
// with the grandparent, it would share exactly as much with the
// grandparent, which comes first. So each fork point is one the parent's
// build passes through. A single order records nothing and keeps no fork
// storage.
func (b *Base) findForks(orders [][]*job.Job) {
	b.forks = b.forks[:0]
	for i := 1; i < len(orders); i++ {
		parent, at := -1, 0
		for p := range i {
			if m := commonPrefix(orders[p], orders[i]); m > at {
				parent, at = p, m
			}
		}
		if parent < 0 {
			continue
		}
		// Reslice rather than append a fresh value: a slot past the
		// length keeps the profile storage an earlier event grew.
		n := len(b.forks)
		b.forks = slices.Grow(b.forks, 1)[:n+1]
		f := &b.forks[n]
		f.child, f.parent, f.at = i, parent, at
	}
}

// commonPrefix returns the number of leading jobs a and b share.
func commonPrefix(a, b []*job.Job) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// nextFork returns the first placement count at or after k at which a
// later order forks from order i's build, or -1 when none does.
func (b *Base) nextFork(i, k int) int {
	next := -1
	for f := range b.forks {
		if at := b.forks[f].at; b.forks[f].parent == i && at >= k && (next < 0 || at < next) {
			next = at
		}
	}
	return next
}

// hand copies the state of order i's build after k placements to every
// fork taken there.
func (b *Base) hand(i, k int, prof *profile.Profile, proven witnesses) {
	for f := range b.forks {
		if c := &b.forks[f]; c.parent == i && c.at == k {
			prof.CloneInto(&c.prof)
			c.proven = proven
		}
	}
}

// BuildFromOrdered returns a new schedule built by b.BuildInto.
//
// Deprecated: it allocates a Schedule per call; keep the schedules and
// BuildInto them. It stays while benchmark/trace.go calls it (ROADMAP.md,
// item 2(a)).
func BuildFromOrdered(b *Base, ordered []*job.Job, p policy.Policy) *Schedule {
	s := new(Schedule)
	b.BuildInto([]*Schedule{s}, [][]*job.Job{ordered}, []policy.Policy{p})
	return s
}

// ReleaseSchedules releases every non-nil schedule in ss and nils the
// slots.
//
// Deprecated: a schedule only its builder rebuilds needs no release. It
// stays while benchmark/trace.go calls it (ROADMAP.md, item 2(a)).
func ReleaseSchedules(ss []*Schedule) {
	for i, s := range ss {
		if s != nil {
			s.Release()
			ss[i] = nil
		}
	}
}

// Release marks the schedule superseded: its owner is about to rebuild it
// in place, so nobody may read it anymore. Only the owner may call it,
// once per build: core.Lane marks every schedule of an event except the
// one it hands out, and the one it handed out before once its replacement
// exists — the moment the engine.Driver contract ends the caller's claim
// on it. A second mark panics, which catches an owner that lost track of
// its slots. A reader that outlived its claim finds Released true, and
// Verify and the engine's invariant check turn it into an error. The
// entries stay as they were, for the owner alone: the next event's build
// may carry them over (Base.Carry).
func (s *Schedule) Release() {
	if s.released {
		panic("plan: Schedule released twice")
	}
	s.released = true
}

// Released reports whether the schedule has been superseded and must not
// be read anymore. The engine's invariant check and Verify use it to turn
// a use after supersession into an error instead of a silently wrong plan.
func (s *Schedule) Released() bool { return s.released }

// PlannedSLDwA is the slowdown weighted by job area of the planned
// schedule, using estimates as the run time (the only run time the planner
// can see). It is the paper's headline decision metric: SLDwA =
// sum(a_i*s_i)/sum(a_i) with a_i the estimated area and s_i =
// (wait_i+estimate_i)/estimate_i. An empty plan scores 0.
func (s *Schedule) PlannedSLDwA() float64 {
	s.Complete()
	var num, den float64
	for _, e := range s.Entries {
		a := float64(e.Job.EstimatedArea())
		sld := float64(e.Start-e.Job.Submit+e.Job.Estimate) / float64(e.Job.Estimate)
		num += a * sld
		den += a
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PlannedART is the average planned response time (wait + estimate) of the
// waiting jobs. An empty plan scores 0.
func (s *Schedule) PlannedART() float64 {
	s.Complete()
	if len(s.Entries) == 0 {
		return 0
	}
	var sum float64
	for _, e := range s.Entries {
		sum += float64(e.Start - e.Job.Submit + e.Job.Estimate)
	}
	return sum / float64(len(s.Entries))
}

// PlannedARTwW is the planned average response time weighted by job width,
// which the paper notes is proportional to SLDwA for a fixed job set.
// An empty plan scores 0.
func (s *Schedule) PlannedARTwW() float64 {
	s.Complete()
	var num, den float64
	for _, e := range s.Entries {
		w := float64(e.Job.Width)
		num += w * float64(e.Start-e.Job.Submit+e.Job.Estimate)
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PlannedAWT is the average planned waiting time. An empty plan scores 0.
func (s *Schedule) PlannedAWT() float64 {
	s.Complete()
	if len(s.Entries) == 0 {
		return 0
	}
	var sum float64
	for _, e := range s.Entries {
		sum += float64(e.Start - e.Job.Submit)
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
// entries of the complete plan, 0 when there are none (PlannedMakespan's
// convention).
func (s *Schedule) MaxEstimatedEnd() int64 {
	s.Complete()
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
// schedules all place in Entries order and satisfy it. A schedule its
// owner has superseded fails outright. It checks the complete plan,
// completing a frontier schedule first. It is used by tests and by the
// simulator's paranoid mode.
func (s *Schedule) Verify(running []Running) error {
	if s.released {
		return fmt.Errorf("plan: schedule at %d under %v was superseded", s.Now, s.Policy)
	}
	s.Complete()
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
