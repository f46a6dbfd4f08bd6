package policy

import (
	"fmt"
	"slices"

	"dynp/internal/job"
)

// Views keeps the waiting queue sorted under each of a fixed set of
// policies, spliced on every queue change, so a planning step never
// re-sorts: an arrival costs one binary search and one memmove per policy
// instead of an O(n log n) sort per policy per scheduling event. Every
// policy order is total (TieBreak ends each Less), so a spliced view is
// byte-identical to Order's stable sort of the same jobs.
//
// The planning drivers (the self-tuner over its candidates, a static
// driver over its one policy) feed it from engine.QueueTracker
// notifications and ask Covering before trusting it, so a missed
// notification costs speed, never correctness. A nil *Views tracks
// nothing and covers nothing. Not safe for concurrent use.
type Views struct {
	policies []Policy
	tracked  map[job.ID]*job.Job
	orders   [][]*job.Job // parallel to policies, each in its policy's order
}

// NewViews returns empty views over the given policies.
func NewViews(policies ...Policy) *Views {
	return &Views{
		policies: policies,
		tracked:  make(map[job.ID]*job.Job),
		orders:   make([][]*job.Job, len(policies)),
	}
}

// Insert records that j entered the waiting queue. Re-submitting a live
// ID replaces the stale entry, so the views never hold two jobs with one
// ID.
func (v *Views) Insert(j *job.Job) {
	if old, ok := v.tracked[j.ID]; ok {
		v.Remove(old)
	}
	v.tracked[j.ID] = j
	for i, p := range v.policies {
		v.orders[i] = slices.Insert(v.orders[i], position(p, v.orders[i], j), j)
	}
}

// Remove records that j left the waiting queue (it started or was
// cancelled). Jobs the views do not hold are ignored.
func (v *Views) Remove(j *job.Job) {
	if v == nil || v.tracked[j.ID] != j {
		return
	}
	delete(v.tracked, j.ID)
	for i, p := range v.policies {
		o := v.orders[i]
		k := position(p, o, j)
		if k >= len(o) || o[k] != j {
			panic(fmt.Sprintf("policy: job %d not at its ordered position in the %v view", j.ID, p))
		}
		v.orders[i] = slices.Delete(o, k, k+1)
	}
}

// Covering returns the per-policy orders of waiting (parallel to the
// policies given to NewViews) when the views hold exactly the jobs of
// that slice, or nil to request a full sort — e.g. while the engine
// withholds unplaceable jobs during a capacity failure. The orders are
// the views' own storage: read-only, and valid until the next Insert or
// Remove.
func (v *Views) Covering(waiting []*job.Job) [][]*job.Job {
	if v == nil || len(v.tracked) != len(waiting) {
		return nil
	}
	for _, j := range waiting {
		if v.tracked[j.ID] != j {
			return nil
		}
	}
	return v.orders
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
