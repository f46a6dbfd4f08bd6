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
// It walks the queue of the last call against waiting, in order, the way
// plan.Base.Reset walks the running set: a job that is not next in
// waiting is spliced out of every order, and the jobs after the last
// match are spliced in. The scheduling engine only appends submissions
// and removes jobs in place, so a call costs what changed. A job that
// rejoins out of order — withheld during a capacity failure and back, or
// an ID re-submitted as a new job — is spliced out and in again, which
// costs a little and changes nothing.
func (v *Views) Sync(waiting []*job.Job) [][]*job.Job {
	k := 0 // waiting[:k] matched the last queue so far
	for _, j := range v.queue {
		if k < len(waiting) && waiting[k] == j {
			k++
		} else {
			v.remove(j)
		}
	}
	for _, j := range waiting[k:] {
		for i, p := range v.policies {
			v.orders[i] = slices.Insert(v.orders[i], position(p, v.orders[i], j), j)
		}
	}
	v.queue = append(v.queue[:0], waiting...)
	return v.orders
}

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
