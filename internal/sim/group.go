package sim

import (
	"fmt"
	"reflect"
	"slices"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// RunGroup simulates the job set under every driver and returns one
// result per driver, in order, each equal to what Run(set, driver) would
// return. The drivers must be fresh, as for Run, and distinct.
//
// The drivers of each of Groups' groups share one trajectory. At every
// scheduling event one lane builds the candidate schedules, and each
// driver scores them and decides with its own tuner state
// (core.SelfTuner.Choose). While every choice launches the same (see
// sameLaunch), the drivers share one engine and one event queue. Where
// their launches differ, the trajectory splits before launching: each
// part continues from a copy of the machine state, the pending
// completions, the position in the submissions and the records so far,
// launching its own schedule.
// Every decision therefore sees exactly the inputs it would see alone.
func RunGroup(set *job.Set, drivers []Driver) ([]*Result, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	groups, err := Groups(drivers)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(drivers))
	for _, idx := range groups {
		members := make([]member, len(idx))
		for k, i := range idx {
			results[i] = newResult(set, drivers[i])
			members[k] = member{drivers[i], results[i]}
		}
		driver := drivers[idx[0]]
		if len(idx) > 1 {
			driver = newGroup(members)
		}
		if err := simulate(newTrajectory(set, members, driver, runConfig{})); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Groups partitions the drivers into the groups RunGroup co-simulates,
// as driver indices in order of first appearance. *DynP drivers with
// equal candidates share a group; every other driver is a group of its
// own. EASY plans without a lane, and a static's launches part from a
// dynP driver's after a few percent of the jobs.
// A driver passed twice is an error: its second run would start from
// the state its first one left.
func Groups(drivers []Driver) ([][]int, error) {
	for i, d := range drivers {
		for _, e := range drivers[:i] {
			// Comparing two values of one uncomparable type panics.
			if reflect.TypeOf(d).Comparable() && d == e {
				return nil, fmt.Errorf("sim: driver %s passed twice", d.Name())
			}
		}
	}
	var groups [][]int
	var firsts []*DynP // each group's first driver, nil if it takes no others
next:
	for i, d := range drivers {
		dp, ok := d.(*DynP)
		if !ok {
			groups, firsts = append(groups, []int{i}), append(firsts, nil)
			continue
		}
		for g, first := range firsts {
			if first != nil && slices.Equal(first.Tuner.Candidates(), dp.Tuner.Candidates()) {
				groups[g] = append(groups[g], i)
				continue next
			}
		}
		groups, firsts = append(groups, []int{i}), append(firsts, dp)
	}
	return groups, nil
}

// group is the engine's driver for a trajectory several dynP drivers
// share. Plan builds the candidate schedules once on the group's lane
// and lets every member choose; while all choices launch the same jobs
// now, it hands out the first member's. Otherwise it launches nothing,
// leaving the engine as it was before launching, and marks the
// trajectory for its split.
type group struct {
	policies []policy.Policy
	lane     *core.Lane
	drivers  []*DynP
	chosen   []int // each member's schedule index at the last Plan

	// pending, when set, is what the next Plan hands out without
	// planning: the schedule a part of a split launches.
	pending *plan.Schedule
	// diverged holds the last Plan's schedules when the members'
	// launches differed, until the trajectory splits.
	diverged []*plan.Schedule
	idle     plan.Schedule // what a diverged Plan hands out: no entries

	la, lb []*job.Job // sameLaunch's scratch: the two launches
	pos    []int      // where each of la's jobs is in lb
}

func newGroup(members []member) *group {
	g := &group{chosen: make([]int, len(members))}
	g.setMembers(members)
	g.policies = g.drivers[0].Tuner.Candidates()
	g.lane = core.NewLane(g.policies...)
	return g
}

// setMembers makes the members' drivers the group's.
func (g *group) setMembers(members []member) {
	g.drivers = g.drivers[:0]
	for _, m := range members {
		g.drivers = append(g.drivers, m.driver.(*DynP))
	}
	g.chosen = g.chosen[:len(g.drivers)]
}

// Name implements Driver.
func (g *group) Name() string { return g.drivers[0].Name() }

// ActivePolicy implements Driver.
func (g *group) ActivePolicy() policy.Policy { return g.drivers[0].ActivePolicy() }

// Plan implements Driver.
func (g *group) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	if s := g.pending; s != nil {
		g.pending = nil
		return s
	}
	ss := g.lane.Build(now, capacity, running, waiting)
	same := true
	for i, d := range g.drivers {
		// Every member decides, even after a difference shows: each
		// commits exactly one decision per scheduling event.
		g.chosen[i] = d.Tuner.Choose(now, ss)
		same = same && g.sameLaunch(ss[g.chosen[0]], ss[g.chosen[i]], now)
	}
	if !same {
		g.diverged = ss
		g.idle = plan.Schedule{Now: now, Capacity: capacity, Policy: g.policies[0]}
		return &g.idle
	}
	return g.lane.Keep(g.chosen[0])
}

// sameLaunch reports whether schedules a and b launch the same at now,
// as far as anything after the launch can tell. The engine starts a
// schedule's due entries in entry order, and that order reaches only two
// things: the order of the running set, which planning ignores (the base
// profile of a running set is the same in any order), and the dispatch
// order of completions falling at one instant. So two launches match when
// they start the same jobs and every two of them with equal run times
// start in the same order.
func (g *group) sameLaunch(a, b *plan.Schedule, now int64) bool {
	if a == b {
		return true
	}
	g.la, g.lb = launches(g.la[:0], a, now), launches(g.lb[:0], b, now)
	if slices.Equal(g.la, g.lb) {
		return true
	}
	if len(g.la) != len(g.lb) {
		return false
	}
	g.pos = g.pos[:0]
	for i, j := range g.la {
		k := slices.Index(g.lb, j)
		if k < 0 {
			return false
		}
		for h, e := range g.la[:i] {
			if e.Runtime == j.Runtime && g.pos[h] > k {
				return false
			}
		}
		g.pos = append(g.pos, k)
	}
	return true
}

// launches appends the jobs s starts at now to dst, in entry order.
func launches(dst []*job.Job, s *plan.Schedule, now int64) []*job.Job {
	for _, e := range s.Entries {
		if e.Start == now {
			dst = append(dst, e.Job)
		}
	}
	return dst
}

// split parts the members of a trajectory whose group launched nothing
// because their choices differ, by the jobs each choice starts. The
// first part goes on here; every other part gets a copy of the engine's
// state, the completion queue, the submission cursor and the records,
// and is appended to work.
// Each part then replans at the current instant, launching its schedule.
func (t *trajectory) split(work *[]*trajectory) error {
	g := t.group
	ss, now := g.diverged, t.eng.Now()
	g.diverged = nil
	var parts [][]int // member indices
	var reps []int    // the schedule each part launches
	for i, c := range g.chosen {
		p := 0
		for p < len(parts) && !g.sameLaunch(ss[reps[p]], ss[c], now) {
			p++
		}
		if p == len(parts) {
			parts, reps = append(parts, nil), append(reps, c)
		}
		parts[p] = append(parts[p], i)
	}

	for p := 1; p < len(parts); p++ {
		f := &trajectory{
			set:      t.set,
			next:     t.next,
			events:   t.events.Clone(),
			records:  append(make([]Record, 0, len(t.set.Jobs)), t.records...),
			makespan: t.makespan,
			last:     t.last,
			members:  pick(t.members, parts[p]),
			resume:   true,
		}
		f.group = newGroup(f.members)
		launch := *ss[reps[p]]
		launch.Entries = slices.Clone(launch.Entries)
		f.group.pending = &launch
		f.eng = engine.New(t.set.Machine, f.group, now, f.engineOptions(runConfig{})...)
		err := f.eng.RestoreState(engine.State{
			Now:     now,
			Failed:  t.eng.FailedProcs(),
			Counts:  t.eng.Counts(),
			Waiting: slices.Clone(t.eng.Waiting()),
			Running: slices.Clone(t.eng.Running()),
		})
		if err != nil {
			return err
		}
		*work = append(*work, f)
	}

	t.members = pick(t.members, parts[0])
	g.setMembers(t.members)
	g.pending = g.lane.Keep(reps[0])
	t.resume = true
	return nil
}

// pick returns the members at the given indices.
func pick(members []member, idx []int) []member {
	out := make([]member, len(idx))
	for k, i := range idx {
		out[k] = members[i]
	}
	return out
}
