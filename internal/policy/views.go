package policy

import (
	"fmt"
	"slices"

	"dynp/internal/job"
)

// Views keeps the waiting queue sorted under each of a fixed set of
// policies, so a planning step never re-sorts: Sync splices in what
// changed since the queue of its last call, and an arrival costs one
// binary search and one memmove per policy instead of an O(n log n) sort
// per policy per scheduling event. Every policy order is total (TieBreak
// ends each Less), so a spliced view is byte-identical to Order's stable
// sort of the same jobs. Not safe for concurrent use.
type Views struct {
	policies []Policy
	queue    []*job.Job   // the queue of the last Sync, in its order
	orders   [][]*job.Job // parallel to policies, each in its policy's order
	joining  []*job.Job   // the jobs the last Sync spliced in
}

// NewViews returns empty views over the given policies.
func NewViews(policies ...Policy) *Views {
	return &Views{policies: policies, orders: make([][]*job.Job, len(policies))}
}

// Sync makes the views hold exactly the jobs of waiting and returns the
// per-policy orders, parallel to the policies given to NewViews. The
// orders are the views' own storage: read-only, and valid until the next
// Sync.
//
// It merges the queue of the last call with waiting, the way
// plan.Base.Reset walks the running set: a job of the last queue that is
// not next in waiting is spliced out of every order, and a job of waiting
// is spliced in when it comes before the next job of the last queue in ID
// order or after the last queue's end. The scheduling engine keeps its
// queue in submission order, issues IDs in that order, only appends
// submissions and removes jobs in place, so a call costs what changed,
// and so does one whose queue regains jobs it lost: a job withheld
// during a capacity failure and back, or a quote twin's restored queue,
// which holds again the jobs its last roll-out started. Any other queue
// is planned all the same: a job out of ID order — an ID re-submitted as
// a new job — is spliced out and in again, which costs a little and
// changes nothing. The jobs are spliced in after every job is spliced
// out, so no order ever holds two jobs it cannot tell apart.
func (v *Views) Sync(waiting []*job.Job) [][]*job.Job {
	v.joining = v.joining[:0]
	k := 0 // waiting[:k] matched the last queue or joined so far
	for _, j := range v.queue {
		for k < len(waiting) && waiting[k] != j && waiting[k].ID < j.ID {
			v.joining = append(v.joining, waiting[k])
			k++
		}
		if k < len(waiting) && waiting[k] == j {
			k++
		} else {
			v.remove(j)
		}
	}
	v.joining = append(v.joining, waiting[k:]...)
	for _, j := range v.joining {
		for i, p := range v.policies {
			v.orders[i] = slices.Insert(v.orders[i], position(p, v.orders[i], j), j)
		}
	}
	v.queue = append(v.queue[:0], waiting...)
	return v.orders
}

// Added returns how many jobs the last Sync spliced in. When it is 0,
// every order is the last one with jobs removed.
func (v *Views) Added() int { return len(v.joining) }

// remove splices j out of every order.
func (v *Views) remove(j *job.Job) {
	for i, p := range v.policies {
		o := v.orders[i]
		k := position(p, o, j)
		if k >= len(o) || o[k] != j {
			panic(fmt.Sprintf("policy: job %d not at its ordered position in the %v view", j.ID, p))
		}
		v.orders[i] = slices.Delete(o, k, k+1)
	}
}

// position returns the leftmost index of ordered whose job is not less
// than j under p: where j belongs, and — the order being total — where j
// is when ordered holds it.
func position(p Policy, ordered []*job.Job, j *job.Job) int {
	lo, hi := 0, len(ordered)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.Less(ordered[m], j) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
