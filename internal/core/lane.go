package core

import (
	"slices"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// Lane is the one way from a waiting queue to schedules, shared by every
// planning driver: the static drivers run it over one policy, the
// self-tuner over its candidates. Build does a scheduling event's
// placement work — base profile, each policy's order of the queue, one
// schedule per policy — and Keep ends the event by handing one of those
// schedules out. BuildFrontier is Build's one-policy sibling for a driver
// that scores nothing: it places only up to the launch frontier and
// leaves the rest of the plan to plan.Schedule.Complete.
//
// The lane owns its storage and rebuilds it in place: one plan.Base and
// k+1 schedules for k policies, double buffered. Build writes policy i's
// schedule into slot i; Keep(i) swaps slot i with the schedule the
// previous Keep handed out, which this one supersedes (the lifetime rule
// on engine.Driver), and marks every slot superseded (plan.Schedule's
// Release), so a reader that outlives its claim fails Verify and
// engine.CheckInvariants instead of reading a rebuilt plan. The handed-out
// schedule is never a slot, so the next Build leaves it intact.
//
// The lane keeps the queue in each of its policies' orders on a
// policy.Views, which Build and BuildFrontier sync with the queue they are
// handed: the orders follow whatever queue comes, and an event costs what
// changed since the last one.
type Lane struct {
	policies []policy.Policy // one per slot, in the views' order
	views    *policy.Views
	base     plan.Base
	slots    []*plan.Schedule // the current event's schedules
	kept     *plan.Schedule   // handed out by the previous Keep
}

// NewLane returns a lane that plans the queue under the given policies.
func NewLane(policies ...policy.Policy) *Lane {
	return &Lane{policies: policies, views: policy.NewViews(policies...)}
}

// Build plans the waiting queue once per policy of the lane and returns
// the schedules in that order. They are the lane's until Keep: score
// them, pick one, call Keep. All of them come from one
// plan.Base.BuildInto, so orders that begin with the same jobs place
// those jobs once.
func (l *Lane) Build(now int64, capacity int, running []plan.Running, waiting []*job.Job) []*plan.Schedule {
	l.open(now, capacity, running, len(l.policies))
	l.base.BuildInto(l.slots, l.views.Sync(waiting), l.policies)
	return l.slots
}

// BuildFrontier plans the waiting queue under the lane's one policy up to
// its launch frontier (plan.Base.FrontierInto) and returns the schedule,
// the lane's until Keep(0) like Build's. It serves a driver that launches
// from the plan and scores nothing: the entries that start now are all
// placed, and a reader of the whole plan calls Complete, which the lane's
// next build forbids.
func (l *Lane) BuildFrontier(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	l.open(now, capacity, running, 1)
	l.base.FrontierInto(l.slots[0], l.views.Sync(waiting)[0], l.policies[0])
	return l.slots[0]
}

// open starts an event: n schedule slots and the base profile.
func (l *Lane) open(now int64, capacity int, running []plan.Running, n int) {
	l.slots = slices.Grow(l.slots[:0], n)[:n]
	for i, s := range l.slots {
		if s == nil {
			l.slots[i] = new(plan.Schedule)
		}
	}
	l.base.Reset(now, capacity, running)
}

// Keep returns the i-th schedule of the last Build, valid until the next
// Keep, and marks the others superseded together with the schedule the
// previous Keep returned.
func (l *Lane) Keep(i int) *plan.Schedule {
	l.slots[i], l.kept = l.kept, l.slots[i]
	for _, s := range l.slots {
		if s != nil {
			s.Release()
		}
	}
	return l.kept
}
