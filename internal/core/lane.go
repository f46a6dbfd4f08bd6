package core

import (
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// Lane is the one way from a waiting queue to schedules, shared by every
// planning driver: the static drivers run it over one policy, the
// self-tuner over its candidates. Build does a scheduling event's
// placement work — pooled base profile, each policy's order of the queue,
// one schedule per policy, base released — and Keep ends the event by
// handing one of those schedules out and recycling the rest.
//
// A front end that reports every waiting-queue change through
// NoteSubmit/NoteRemove (the scheduling engine does, via
// engine.QueueTracker) keeps the lane's policy.Views spliced up to date,
// so Build reads the orders off them instead of sorting. Build trusts a
// view only when the views hold exactly the queue it was handed (they do
// not while the engine withholds unplaceable jobs during a capacity
// failure, or when nothing feeds them) and only for the policy that view
// was primed with; otherwise it sorts in full — the same schedule either
// way, because policy orders are total. A missed notification or a
// changed policy therefore costs speed, never correctness.
type Lane struct {
	policies []policy.Policy // what the views are primed with
	views    *policy.Views
	built    []*plan.Schedule // the current event's schedules
	kept     *plan.Schedule   // handed out by the previous Keep
}

// NewLane returns a lane whose views order the queue by the given
// policies.
func NewLane(policies ...policy.Policy) *Lane {
	return &Lane{policies: policies, views: policy.NewViews(policies...)}
}

// NoteSubmit records that j entered the waiting queue.
func (l *Lane) NoteSubmit(j *job.Job) { l.views.Insert(j) }

// NoteRemove records that j left the waiting queue (it started or was
// cancelled). Jobs the lane never heard of are ignored.
func (l *Lane) NoteRemove(j *job.Job) { l.views.Remove(j) }

// Build plans the waiting queue once per given policy and returns the
// schedules in that order. They are the lane's until Keep: score them,
// pick one, call Keep.
func (l *Lane) Build(now int64, capacity int, running []plan.Running, waiting []*job.Job, policies ...policy.Policy) []*plan.Schedule {
	if cap(l.built) < len(policies) {
		l.built = make([]*plan.Schedule, len(policies))
	}
	l.built = l.built[:len(policies)]
	base := plan.BuildBasePooled(now, capacity, running)
	ordered := l.views.Covering(waiting)
	for i, p := range policies {
		if ordered != nil && i < len(l.policies) && l.policies[i] == p {
			l.built[i] = plan.BuildFromOrdered(base, ordered[i], p)
		} else {
			l.built[i] = plan.BuildFromOrdered(base, policy.Order(p, waiting), p)
		}
	}
	base.Release()
	return l.built
}

// Keep returns the i-th schedule of the last Build and releases the
// others to the plan pools — they never escape — along with the schedule
// the previous Keep returned, which this one supersedes (the lifetime
// rule on engine.Driver).
func (l *Lane) Keep(i int) *plan.Schedule {
	next := l.built[i]
	l.built[i] = nil
	plan.ReleaseSchedules(l.built)
	if l.kept != nil {
		l.kept.Release()
	}
	l.kept = next
	return next
}
